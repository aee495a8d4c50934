// Package scenario is the mixed-workload engine: it compiles declarative
// schedules — interleaved node insertions, adversarial single deletions,
// correlated batch kills (rack/region failure), churn bursts, and quiet
// periods — into deterministic event streams, and drives any healer
// (DASH, SDASH, SDASH-full, the baselines) through them on the
// experiment harness's deterministic worker pool.
//
// The paper's own workload is one deletion per round until the graph is
// empty: a one-phase Attrition schedule, which is how internal/sim runs
// every §4.1 trial on this package's loop. The broader self-healing
// literature (Trehan, arXiv:1305.4675; Hayashi et al., arXiv:2008.00651)
// treats interleaved arrivals, departures, and disaster-style
// correlated failures as the real world. This package opens those
// workloads at sizes (10⁵–10⁶ nodes) that exact per-round metrics
// cannot reach, which forces three design rules:
//
//   - per-event work must be output-sensitive: victims are drawn from an
//     incrementally maintained alive-set (O(1) per uniform pick), peak δ
//     is maintained from the endpoints of edges the healer actually adds
//     (δ can only rise there), and connectivity is verified by a
//     multi-source search from the deletion's surviving boundary that
//     stops once the boundary is joined (ConnTracker) instead of a full
//     sweep per event;
//   - global metrics are sampled: above Config.SampleThreshold alive
//     nodes the checkpoints use k-source estimates with confidence
//     intervals (metrics.AutoStretch, metrics.SampledDiameter) instead
//     of O(n·m) exact sweeps;
//   - schedules compile to event streams with no randomness, so the
//     stream is one fixed program; all randomness (victims, attach
//     targets, disaster epicenters) comes from per-trial generators
//     pre-split in trial order (par.ForEachTrial), making every Result
//     bit-identical at any Config.Workers.
package scenario

import "fmt"

// PhaseKind enumerates the schedule building blocks.
type PhaseKind uint8

const (
	// PhaseQuiet performs no mutations for Rounds events (measurement
	// checkpoints still fire on cadence).
	PhaseQuiet PhaseKind = iota
	// PhaseAttrition deletes one victim per event, chosen by the
	// configured VictimPolicy.
	PhaseAttrition
	// PhaseGrowth inserts one node per event, attached to Attach random
	// alive nodes (a flash crowd).
	PhaseGrowth
	// PhaseChurn interleaves insertions and deletions: every
	// InsertEvery-th event is an insertion, the rest are deletions.
	PhaseChurn
	// PhaseDisaster kills a correlated cluster per event: WaveSize alive
	// nodes forming a BFS ball around a random epicenter (a rack or
	// region failure), healed by batch DASH.
	PhaseDisaster
)

// String names the phase kind.
func (k PhaseKind) String() string {
	switch k {
	case PhaseQuiet:
		return "quiet"
	case PhaseAttrition:
		return "attrition"
	case PhaseGrowth:
		return "growth"
	case PhaseChurn:
		return "churn"
	case PhaseDisaster:
		return "disaster"
	default:
		return fmt.Sprintf("phase(%d)", uint8(k))
	}
}

// Phase is one schedule segment. Construct phases with the helpers below
// (Quiet, Attrition, Growth, Churn, Disaster); the zero value is invalid.
type Phase struct {
	Kind   PhaseKind
	Rounds int // events this phase emits

	Attach      int // Growth/Churn: edges per joining node (>= 1)
	InsertEvery int // Churn: every k-th event is an insertion (>= 2)
	WaveSize    int // Disaster: alive nodes per correlated kill (>= 1)
}

// Quiet returns a no-mutation phase of the given length.
func Quiet(rounds int) Phase { return Phase{Kind: PhaseQuiet, Rounds: rounds} }

// Attrition returns a one-deletion-per-event phase.
func Attrition(rounds int) Phase { return Phase{Kind: PhaseAttrition, Rounds: rounds} }

// Growth returns a one-insertion-per-event phase; each newcomer attaches
// to attach distinct random alive nodes.
func Growth(rounds, attach int) Phase {
	return Phase{Kind: PhaseGrowth, Rounds: rounds, Attach: attach}
}

// Churn returns a mixed phase: every insertEvery-th event inserts a node
// (with attach edges), all other events delete one victim.
func Churn(rounds, insertEvery, attach int) Phase {
	return Phase{Kind: PhaseChurn, Rounds: rounds, InsertEvery: insertEvery, Attach: attach}
}

// Disaster returns a correlated-failure phase: waves events, each
// killing a BFS ball of waveSize alive nodes at once.
func Disaster(waves, waveSize int) Phase {
	return Phase{Kind: PhaseDisaster, Rounds: waves, WaveSize: waveSize}
}

// Schedule is an ordered list of phases: the declarative description of
// a workload.
type Schedule struct {
	Name   string
	Phases []Phase
}

// Validate checks every phase for structural sanity.
func (sc Schedule) Validate() error {
	if len(sc.Phases) == 0 {
		return fmt.Errorf("scenario: schedule %q has no phases", sc.Name)
	}
	for i, p := range sc.Phases {
		if p.Rounds <= 0 {
			return fmt.Errorf("scenario: phase %d (%s) has %d rounds", i, p.Kind, p.Rounds)
		}
		switch p.Kind {
		case PhaseQuiet, PhaseAttrition:
		case PhaseGrowth:
			if p.Attach < 1 {
				return fmt.Errorf("scenario: phase %d (growth) attach %d < 1", i, p.Attach)
			}
		case PhaseChurn:
			if p.Attach < 1 {
				return fmt.Errorf("scenario: phase %d (churn) attach %d < 1", i, p.Attach)
			}
			if p.InsertEvery < 2 {
				return fmt.Errorf("scenario: phase %d (churn) insertEvery %d < 2 (use Attrition or Growth)", i, p.InsertEvery)
			}
		case PhaseDisaster:
			if p.WaveSize < 1 {
				return fmt.Errorf("scenario: phase %d (disaster) wave size %d < 1", i, p.WaveSize)
			}
		default:
			return fmt.Errorf("scenario: phase %d has unknown kind %d", i, uint8(p.Kind))
		}
	}
	return nil
}

// Events returns the total number of events the schedule compiles to.
func (sc Schedule) Events() int {
	total := 0
	for _, p := range sc.Phases {
		total += p.Rounds
	}
	return total
}

// OpKind enumerates compiled event operations.
type OpKind uint8

const (
	// OpQuiet mutates nothing.
	OpQuiet OpKind = iota
	// OpDelete removes one victim (chosen at run time) and heals.
	OpDelete
	// OpInsert joins one node with Size attach edges.
	OpInsert
	// OpBatchKill removes a correlated ball of Size alive nodes at once
	// and heals with batch DASH.
	OpBatchKill
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpQuiet:
		return "quiet"
	case OpDelete:
		return "delete"
	case OpInsert:
		return "insert"
	case OpBatchKill:
		return "batchkill"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Event is one compiled workload step. The stream is a pure function of
// the schedule: victim/attach/epicenter choices are deferred to run time
// so they can depend on the evolving topology, but the event sequence
// itself contains no randomness.
type Event struct {
	Phase int    // index into Schedule.Phases
	Kind  OpKind // what to do
	Size  int    // OpInsert: attach degree; OpBatchKill: wave size
}

// Compile expands the schedule into its deterministic event stream. The
// stream length is exactly Events(); compiling the same schedule twice
// yields identical streams.
func (sc Schedule) Compile() ([]Event, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	out := make([]Event, 0, sc.Events())
	for pi, p := range sc.Phases {
		for i := 0; i < p.Rounds; i++ {
			switch p.Kind {
			case PhaseQuiet:
				out = append(out, Event{Phase: pi, Kind: OpQuiet})
			case PhaseAttrition:
				out = append(out, Event{Phase: pi, Kind: OpDelete})
			case PhaseGrowth:
				out = append(out, Event{Phase: pi, Kind: OpInsert, Size: p.Attach})
			case PhaseChurn:
				if (i+1)%p.InsertEvery == 0 {
					out = append(out, Event{Phase: pi, Kind: OpInsert, Size: p.Attach})
				} else {
					out = append(out, Event{Phase: pi, Kind: OpDelete})
				}
			case PhaseDisaster:
				out = append(out, Event{Phase: pi, Kind: OpBatchKill, Size: p.WaveSize})
			}
		}
	}
	return out, nil
}
