// Package core implements the paper's primary contribution: the
// self-healing state machine of Saia & Trehan's "Picking up the Pieces:
// Self-Healing in Reconfigurable Networks" (IPPS 2008), including the
// DASH and SDASH healing algorithms, the MINID component-label flood with
// the message accounting of Lemma 8, and the rem(v) potential function
// used by the paper's proofs (Lemmas 2-5), which the test suite checks as
// executable invariants.
//
// Terminology follows the paper:
//
//   - G is the real network; G′ ("Gp" in code) is the subgraph of edges
//     added by healing, which DASH keeps a forest (Lemma 1);
//   - every node has an immutable random initial ID and a current ID,
//     the label of its G′ component (the minimum initial ID the
//     component has ever contained);
//   - δ(v) is v's degree increase over its initial degree;
//   - UN(x) is one representative (lowest initial ID) per current-ID
//     class of x's surviving G-neighbors, excluding x's own class;
//   - RT, the reconstruction set, is UN(x) ∪ N(x,G′).
package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// State carries a network through a sequence of deletions and heals.
type State struct {
	G  *graph.Graph // the real network
	Gp *graph.Graph // healing edges G′ ⊆ G

	initID  []uint64 // immutable; the paper's random [0,1] node IDs
	curID   []uint64 // component label: min initial ID in the G′ component's history
	initDeg []int    // degree at construction time

	// Analysis bookkeeping (Lemmas 2-5). Weights start at 1; a deleted
	// node's weight moves to one of its G′ neighbors (or, if it has
	// none, to a G neighbor; if fully isolated the weight is dropped and
	// recorded so conservation can still be asserted).
	weight        []int64
	droppedWeight int64

	// Message accounting in the model of Lemma 8: whenever a node's
	// current ID drops it notifies all of its G neighbors.
	idChanges []int
	msgSent   []int64
	msgRecv   []int64

	usedIDs      map[uint64]struct{} // guards initial-ID uniqueness across joins
	joined       int                 // nodes added after construction (churn)
	initialAlive int                 // alive population at construction
	rounds       int
	hooks        *Hooks // optional observers; see SetHooks

	// cm is nil on the sequential engine; on a ShardedState commit's
	// per-commit view it routes the shared writes (see mutate.go).
	cm *commit

	// Flood-latency accounting (Lemma 9): the depth of each MINID
	// propagation wave, i.e. the largest hop distance from a
	// reconnection-set member to a node that adopted the label.
	floodDepthSum int64
	maxFloodDepth int

	// comps is the scratch of the structural component searches (the
	// batch rule, OracleReconnectSet, SDASHFull's surrogate). A
	// ShardedState's per-commit views share it, which is safe only
	// because they run RegionLocal healers, and those never search.
	comps graph.Region
}

// NewState wraps g (taking ownership) and assigns each node a distinct
// random initial ID drawn from r.
func NewState(g *graph.Graph, r *rng.RNG) *State {
	n := g.N()
	s := &State{
		G:            g,
		Gp:           graph.New(n),
		initID:       make([]uint64, n),
		curID:        make([]uint64, n),
		initDeg:      make([]int, n),
		weight:       make([]int64, n),
		idChanges:    make([]int, n),
		msgSent:      make([]int64, n),
		msgRecv:      make([]int64, n),
		usedIDs:      make(map[uint64]struct{}, n),
		initialAlive: g.NumAlive(),
	}
	used := s.usedIDs
	for v := 0; v < n; v++ {
		id := r.Uint64()
		for {
			if _, dup := used[id]; !dup {
				break
			}
			id = r.Uint64()
		}
		used[id] = struct{}{}
		s.initID[v] = id
		s.curID[v] = id
		s.initDeg[v] = g.Degree(v)
		s.weight[v] = 1
		// Dead slots in Gp must mirror G so Gp ⊆ G stays meaningful.
		if !g.Alive(v) {
			s.Gp.RemoveNode(v)
			s.weight[v] = 0
		}
	}
	return s
}

// N returns the total number of node slots.
func (s *State) N() int { return s.G.N() }

// Rounds returns how many delete-and-heal rounds have been applied.
func (s *State) Rounds() int { return s.rounds }

// InitID returns v's immutable initial ID.
func (s *State) InitID(v int) uint64 { return s.initID[v] }

// CurID returns v's current ID (its G′ component label).
func (s *State) CurID(v int) uint64 { return s.curID[v] }

// InitDegree returns v's degree at construction time.
func (s *State) InitDegree(v int) int { return s.initDeg[v] }

// Delta returns δ(v): v's current degree minus its initial degree.
// It may be negative when a node has lost more edges than healing
// returned to it.
func (s *State) Delta(v int) int { return s.G.Degree(v) - s.initDeg[v] }

// PeakDelta returns the larger of peak and the δ of each node in raised.
// δ rises only where a node gains a G edge, so folding in the endpoints
// of each event's new G edges — a heal's Added, a join's attach targets —
// right after the event keeps the exact running peak of MaxDelta
// without its O(n) scan per event.
func (s *State) PeakDelta(peak int, raised ...int) int {
	for _, v := range raised {
		peak = max(peak, s.Delta(v))
	}
	return peak
}

// PeakDeltaEdges is PeakDelta over both endpoints of each edge in added.
func (s *State) PeakDeltaEdges(peak int, added [][2]int) int {
	for _, e := range added {
		peak = s.PeakDelta(peak, e[0], e[1])
	}
	return peak
}

// MaxDelta returns the largest δ over alive nodes (0 for an empty graph).
// It scans indices directly instead of materializing the alive list;
// per-event peaks use PeakDelta instead.
func (s *State) MaxDelta() int {
	maxD := 0
	for v, n := 0, s.G.N(); v < n; v++ {
		if !s.G.Alive(v) {
			continue
		}
		if d := s.Delta(v); d > maxD {
			maxD = d
		}
	}
	return maxD
}

// IDChanges returns how many times v's current ID has dropped.
func (s *State) IDChanges(v int) int { return s.idChanges[v] }

// Messages returns the number of component-maintenance messages v has
// sent and received (the quantity bounded by Lemma 8).
func (s *State) Messages(v int) int64 { return s.msgSent[v] + s.msgRecv[v] }

// MaxIDChanges returns the largest per-node ID-change count so far,
// including nodes that have since been deleted.
func (s *State) MaxIDChanges() int {
	m := 0
	for _, c := range s.idChanges {
		if c > m {
			m = c
		}
	}
	return m
}

// MaxMessages returns the largest per-node send+receive message count so
// far, including nodes that have since been deleted.
func (s *State) MaxMessages() int64 {
	var m int64
	for v := range s.msgSent {
		if t := s.msgSent[v] + s.msgRecv[v]; t > m {
			m = t
		}
	}
	return m
}

// Weight returns the analysis weight w(v).
func (s *State) Weight(v int) int64 { return s.weight[v] }

// TotalWeight returns the sum of weights over alive nodes plus the weight
// dropped with fully isolated deletions; Lemma 5's bookkeeping makes this
// invariant equal to the initial node count plus any joins.
func (s *State) TotalWeight() int64 {
	t := s.droppedWeight
	for _, v := range s.G.AliveNodes() {
		t += s.weight[v]
	}
	return t
}

// Deletion is the snapshot of a node at the moment it is removed: exactly
// the information the model grants the healing algorithm (the dead node's
// neighborhood, known to its neighbors via neighbor-of-neighbor state).
type Deletion struct {
	Node   int
	CurID  uint64 // x's component label at deletion time
	GNbrs  []int  // surviving N(x, G), sorted
	GpNbrs []int  // surviving N(x, G′), sorted
}

// HealResult reports what a healer did for one deletion.
type HealResult struct {
	RTSize     int      // |UN ∪ N(x,G′)| (or the strategy's analogue)
	Added      [][2]int // edges newly added to G
	Surrogated bool     // SDASH only: star reconnection was used
}

// Healer is a healing strategy: given the state right after x was removed
// (edges already gone) and x's deletion snapshot, repair the network by
// adding edges among x's former neighbors.
type Healer interface {
	// Name identifies the strategy in tables and figures.
	Name() string
	Heal(s *State, d Deletion) HealResult
}

// Remove deletes x from G and G′ and performs the weight hand-off,
// returning the deletion snapshot that is fed to a Healer. It panics if x
// is not alive.
func (s *State) Remove(x int) Deletion {
	if !s.G.Alive(x) {
		panic(fmt.Sprintf("core: removing dead node %d", x))
	}
	// The snapshot must outlive the removal below, so copy out of the
	// graph's internal adjacency (Neighbors is only a view).
	d := Deletion{
		Node:   x,
		CurID:  s.curID[x],
		GNbrs:  s.G.AppendNeighbors(nil, x),
		GpNbrs: s.Gp.AppendNeighbors(nil, x),
	}
	// Weight hand-off (Lemma 2/5 bookkeeping): prefer a G′ neighbor so
	// the weight stays in x's tree; else any G neighbor; else drop.
	switch {
	case len(d.GpNbrs) > 0:
		s.weight[s.minInitID(d.GpNbrs)] += s.weight[x]
	case len(d.GNbrs) > 0:
		s.weight[s.minInitID(d.GNbrs)] += s.weight[x]
	default:
		s.dropWeight(s.weight[x])
	}
	s.weight[x] = 0
	s.removeNode(x)
	if s.hooks != nil && s.hooks.OnRemove != nil {
		s.hooks.OnRemove(x)
	}
	return d
}

// DeleteAndHeal removes x and immediately heals with h, returning the
// healer's report. This is one "round" in the paper's terminology.
func (s *State) DeleteAndHeal(x int, h Healer) HealResult {
	d := s.Remove(x)
	res := h.Heal(s, d)
	s.noteRound()
	return res
}

// minInitID returns the member of vs with the smallest initial ID.
func (s *State) minInitID(vs []int) int {
	best := vs[0]
	for _, v := range vs[1:] {
		if s.initID[v] < s.initID[best] {
			best = v
		}
	}
	return best
}

// UniqueNeighbors computes UN(x,G): partition x's surviving G neighbors
// by current ID, drop the class holding x's own current ID (that class is
// represented in RT by N(x,G′) instead), and keep the lowest-initial-ID
// representative of each remaining class. The result is sorted by node
// index.
func (s *State) UniqueNeighbors(d Deletion) []int {
	rep := make(map[uint64]int)
	for _, v := range d.GNbrs {
		id := s.curID[v]
		if id == d.CurID {
			continue
		}
		if cur, ok := rep[id]; !ok || s.initID[v] < s.initID[cur] {
			rep[id] = v
		}
	}
	out := make([]int, 0, len(rep))
	for _, v := range rep {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// ReconnectSet returns RT = UN(x,G) ∪ N(x,G′), sorted by node index.
// These are the nodes DASH reconnects; they lie in pairwise-distinct G′
// components (Lemma 1), so wiring any tree over them keeps G′ a forest.
func (s *State) ReconnectSet(d Deletion) []int {
	un := s.UniqueNeighbors(d)
	out := make([]int, 0, len(un)+len(d.GpNbrs))
	out = append(out, un...)
	out = append(out, d.GpNbrs...)
	slices.Sort(out)
	return out
}

// SortByDelta orders members ascending by (δ, initial ID): the complete-
// binary-tree mapping order of Algorithm 1 (low δ becomes the root and
// internal nodes; high δ becomes leaves). The initial-ID tie break makes
// the algorithm fully deterministic, and since initial IDs are unique
// the order is total, so an unstable sort gives the same result. Hub
// deletions and disaster-ball boundaries reach hundreds of members, so
// this is an O(k log k) sort, not an insertion sort.
func (s *State) SortByDelta(members []int) {
	slices.SortFunc(members, func(a, b int) int {
		if c := cmp.Compare(s.Delta(a), s.Delta(b)); c != 0 {
			return c
		}
		return cmp.Compare(s.initID[a], s.initID[b])
	})
}

// AddHealingEdge inserts (u,v) into G and G′ (idempotently in G; the edge
// may already exist in the real network, in which case only G′ gains it
// and no degree increases). It reports whether G gained a new edge.
func (s *State) AddHealingEdge(u, v int) bool {
	added, inGp := s.addEdge(u, v, true)
	if s.hooks != nil && s.hooks.OnEdge != nil && (added || inGp) {
		s.hooks.OnEdge(u, v, added, inGp)
	}
	return added
}

// WireBinaryTree connects members (in the given order) as a complete
// binary tree laid out left-to-right, top-down: member i is the parent of
// members 2i+1 and 2i+2. It returns the edges newly added to G.
func (s *State) WireBinaryTree(members []int) [][2]int {
	var added [][2]int
	for i := range members {
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < len(members) {
				if s.AddHealingEdge(members[i], members[c]) {
					added = append(added, [2]int{members[i], members[c]})
				}
			}
		}
	}
	return added
}

// WireStar connects every member to center. It returns the edges newly
// added to G.
func (s *State) WireStar(center int, members []int) [][2]int {
	var added [][2]int
	for _, v := range members {
		if v == center {
			continue
		}
		if s.AddHealingEdge(center, v) {
			added = append(added, [2]int{center, v})
		}
	}
	return added
}

// WireLine connects members (in the given order) as a path. It returns
// the edges newly added to G.
func (s *State) WireLine(members []int) [][2]int {
	var added [][2]int
	for i := 0; i+1 < len(members); i++ {
		if s.AddHealingEdge(members[i], members[i+1]) {
			added = append(added, [2]int{members[i], members[i+1]})
		}
	}
	return added
}

// PropagateMinID implements step 5 of Algorithm 1: compute MINID, the
// minimum current ID over the reconnection set, and flood it through the
// (now merged) G′ component. Nodes adopt the label when it is smaller
// than their current one and, per the message model of Lemma 8, notify
// all of their G neighbors each time their label drops. The wave's depth
// (hops from the reconnection set) is recorded for the Lemma 9 amortized
// latency accounting.
func (s *State) PropagateMinID(rt []int) {
	if len(rt) == 0 {
		return
	}
	minID := s.curID[rt[0]]
	for _, v := range rt[1:] {
		if s.curID[v] < minID {
			minID = s.curID[v]
		}
	}
	type wave struct{ v, depth int }
	queue := make([]wave, 0, len(rt))
	for _, v := range rt {
		if s.curID[v] > minID {
			s.adopt(v, minID)
			queue = append(queue, wave{v, 0})
		}
	}
	depth := 0
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		if w.depth > depth {
			depth = w.depth
		}
		for _, u := range s.Gp.Neighbors(w.v) {
			if s.curID[u] > minID {
				s.adopt(int(u), minID)
				queue = append(queue, wave{int(u), w.depth + 1})
			}
		}
	}
	s.noteFlood(depth)
}

// FloodDepthSum returns the total MINID wave depth over all rounds — the
// quantity whose n-round average Lemma 9 bounds by O(log n) w.h.p.
func (s *State) FloodDepthSum() int64 { return s.floodDepthSum }

// MaxFloodDepth returns the deepest single MINID wave seen.
func (s *State) MaxFloodDepth() int { return s.maxFloodDepth }

// AmortizedFloodDepth returns the average wave depth per round (the
// Lemma 9 amortized ID-propagation latency). Zero before any round.
func (s *State) AmortizedFloodDepth() float64 {
	if s.rounds == 0 {
		return 0
	}
	return float64(s.floodDepthSum) / float64(s.rounds)
}

// adopt lowers v's label and accounts for the notification traffic.
func (s *State) adopt(v int, id uint64) {
	s.curID[v] = id
	s.idChanges[v]++
	nbrs := s.G.Neighbors(v)
	s.msgSent[v] += int64(len(nbrs))
	s.notify(nbrs)
	if s.hooks != nil && s.hooks.OnAdopt != nil {
		s.hooks.OnAdopt(v, id)
	}
}
