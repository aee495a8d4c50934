// Package trace records self-healing executions as event streams that can
// be summarized, serialized, and replayed. A replayed trace reconstructs
// the exact final topology and healing forest, which makes traces a
// debugging and regression tool: any divergence between a live run and
// its own replay indicates unrecorded mutation, and traces of failing
// runs can be archived and replayed later.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
)

// Kind enumerates recorded event types.
type Kind uint8

const (
	// KindRemove is a node deletion.
	KindRemove Kind = iota
	// KindEdge is a healing edge (possibly G-only for shortcuts).
	KindEdge
	// KindAdopt is a component-label change.
	KindAdopt
	// KindJoin is a node arrival.
	KindJoin
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRemove:
		return "remove"
	case KindEdge:
		return "edge"
	case KindAdopt:
		return "adopt"
	case KindJoin:
		return "join"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one recorded mutation.
type Event struct {
	Kind   Kind
	Node   int    // Remove: deleted node; Adopt/Join: the subject node
	U, V   int    // Edge endpoints
	NewInG bool   // Edge: G gained the edge
	InGp   bool   // Edge: G′ gained the edge
	ID     uint64 // Adopt: the adopted label
	Attach []int  // Join: attachment targets
}

// Recorder captures events from a core.State via its hooks.
type Recorder struct {
	events []Event
}

// Attach installs the recorder on s (replacing any existing hooks) and
// returns it.
func Attach(s *core.State) *Recorder {
	r := &Recorder{}
	s.SetHooks(Hooks(func(e Event) { r.events = append(r.events, e) }))
	return r
}

// Hooks maps core's mutation hooks to events: every removal, healing
// edge, label adoption and join of the state they are installed on
// reaches emit as one Event, in the order core fires them. A join's attach list is copied, so no
// event aliases the caller's slice.
func Hooks(emit func(Event)) *core.Hooks {
	return &core.Hooks{
		OnRemove: func(x int) {
			emit(Event{Kind: KindRemove, Node: x})
		},
		OnEdge: func(u, v int, newInG, inGp bool) {
			emit(Event{Kind: KindEdge, U: u, V: v, NewInG: newInG, InGp: inGp})
		},
		OnAdopt: func(v int, id uint64) {
			emit(Event{Kind: KindAdopt, Node: v, ID: id})
		},
		OnJoin: func(v int, attach []int) {
			emit(Event{Kind: KindJoin, Node: v, Attach: append([]int(nil), attach...)})
		},
	}
}

// Events returns the recorded stream (not a copy; treat as read-only).
func (r *Recorder) Events() []Event { return r.events }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Summary renders per-kind counts, e.g. "events=120 remove=40 edge=55 …".
func (r *Recorder) Summary() string {
	counts := map[Kind]int{}
	for _, e := range r.events {
		counts[e.Kind]++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d", len(r.events))
	for _, k := range []Kind{KindRemove, KindEdge, KindAdopt, KindJoin} {
		fmt.Fprintf(&b, " %s=%d", k, counts[k])
	}
	return b.String()
}

// Replay applies the event stream to a copy of the initial graph and
// returns the reconstructed final topology and healing forest. It errors
// on structurally impossible events (dead endpoints, out-of-range nodes),
// which is how a corrupted or mismatched trace announces itself.
func Replay(initial *graph.Graph, events []Event) (g, gp *graph.Graph, err error) {
	g = initial.Clone()
	gp = graph.New(initial.N())
	for v := 0; v < initial.N(); v++ {
		if !initial.Alive(v) {
			gp.RemoveNode(v)
		}
	}
	for i, e := range events {
		switch e.Kind {
		case KindRemove:
			if !g.Alive(e.Node) {
				return nil, nil, fmt.Errorf("trace: event %d removes dead node %d", i, e.Node)
			}
			g.RemoveNode(e.Node)
			gp.RemoveNode(e.Node)
		case KindEdge:
			if !g.Alive(e.U) || !g.Alive(e.V) {
				return nil, nil, fmt.Errorf("trace: event %d edge %d-%d touches a dead node", i, e.U, e.V)
			}
			if e.NewInG {
				if !g.AddEdge(e.U, e.V) {
					return nil, nil, fmt.Errorf("trace: event %d re-adds G edge %d-%d", i, e.U, e.V)
				}
			} else if !g.HasEdge(e.U, e.V) {
				return nil, nil, fmt.Errorf("trace: event %d expects existing G edge %d-%d", i, e.U, e.V)
			}
			if e.InGp {
				gp.AddEdge(e.U, e.V)
			}
		case KindAdopt:
			// Labels are not part of topology replay; validated elsewhere.
		case KindJoin:
			v := g.AddNode()
			if gp.AddNode() != v || v != e.Node {
				return nil, nil, fmt.Errorf("trace: event %d join index mismatch (%d vs %d)", i, v, e.Node)
			}
			for _, u := range e.Attach {
				if !g.Alive(u) {
					return nil, nil, fmt.Errorf("trace: event %d joins to dead node %d", i, u)
				}
				g.AddEdge(v, u)
			}
		default:
			return nil, nil, fmt.Errorf("trace: event %d has unknown kind %d", i, e.Kind)
		}
	}
	return g, gp, nil
}
