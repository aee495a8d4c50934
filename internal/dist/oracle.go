package dist

// The differential oracle: everything that holds the distributed engine
// to the sequential one lives here, written once. This is the only
// non-test file of the package that imports internal/core, and the
// protocol never calls it — a node, the supervisor and the pipeline
// must reach the sequential result on their own messages, or the
// comparison below would prove nothing. Callers (the equivalence tests,
// scenario's differentials, modelcheck, cmd/dashdist and the examples)
// drive both engines and ask Diverges whether they still agree.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rng"
)

// Healer returns the sequential healer whose heal the rule reproduces.
func (k HealerKind) Healer() core.Healer {
	if k == HealSDASH {
		return core.SDASH{}
	}
	return core.DASH{}
}

// KindOf maps a sequential healer to the distributed rule that mirrors
// it, or fails for healers with no distributed implementation.
func KindOf(h core.Healer) (HealerKind, error) {
	switch h.(type) {
	case core.DASH:
		return HealDASH, nil
	case core.SDASH:
		return HealSDASH, nil
	default:
		return 0, fmt.Errorf("healer %q has no distributed counterpart (want DASH or SDASH)", h.Name())
	}
}

// Diverges compares the network with seq, the sequential engine after
// the same operations, and returns nil when they agree bit for bit.
// Otherwise the error names the first field that differs, in this
// order: G, G′, G′ ⊆ G, every alive node's label and δ, then the
// Lemma 9 flood accounting (depth sum, maximum depth, rounds). Call it
// only when no epoch is in flight, as for Snapshot.
func (nw *Network) Diverges(seq *core.State) error {
	snap := nw.Snapshot()
	if !snap.G.Equal(seq.G) {
		return fmt.Errorf("G differs from sequential")
	}
	if !snap.Gp.Equal(seq.Gp) {
		return fmt.Errorf("G′ differs from sequential")
	}
	if !snap.Gp.IsSubgraphOf(snap.G) {
		return fmt.Errorf("G′ ⊄ G")
	}
	for _, v := range seq.G.AliveNodes() {
		if snap.CurID[v] != seq.CurID(v) {
			return fmt.Errorf("node %d label %d, sequential %d", v, snap.CurID[v], seq.CurID(v))
		}
		if snap.Delta[v] != seq.Delta(v) {
			return fmt.Errorf("node %d δ %d, sequential %d", v, snap.Delta[v], seq.Delta(v))
		}
	}
	sum, max, rounds := nw.FloodStats()
	switch {
	case sum != seq.FloodDepthSum():
		return fmt.Errorf("flood depth sum %d, sequential %d", sum, seq.FloodDepthSum())
	case max != seq.MaxFloodDepth():
		return fmt.Errorf("max flood depth %d, sequential %d", max, seq.MaxFloodDepth())
	case rounds != seq.Rounds():
		return fmt.Errorf("rounds %d, sequential %d", rounds, seq.Rounds())
	}
	return nil
}

// InitIDs returns seq's initial IDs, one per slot: the ids a network
// built over seq's graph needs to be seq's distributed twin.
func InitIDs(seq *core.State) []uint64 {
	ids := make([]uint64, seq.N())
	for v := range ids {
		ids[v] = seq.InitID(v)
	}
	return ids
}

// Apply applies op to seq, the sequential engine: a kill heals with
// healer, a batch (crash recoveries included) with the batch rule, and
// a join draws its initial ID from joinR as core.Join does. A join
// whose slot is not known yet — NewID 0, which no join can land in,
// since the node it attaches to holds a lower slot — has its slot and
// initial ID recorded in op, ready to Issue. Any other join must land in
// op.NewID with op.InitID, or Apply fails.
func (op *Op) Apply(seq *core.State, healer core.Healer, joinR *rng.RNG) error {
	switch op.Kind {
	case OpKill:
		seq.DeleteAndHeal(op.Victim, healer)
	case OpJoin:
		v := seq.Join(op.Attach, joinR)
		if op.NewID == 0 {
			op.NewID, op.InitID = v, seq.InitID(v)
		} else if v != op.NewID || seq.InitID(v) != op.InitID {
			return fmt.Errorf("sequential join (slot %d, id %#x), op %v", v, seq.InitID(v), op)
		}
	case OpBatch:
		seq.DeleteBatchAndHeal(op.Batch)
	default:
		return fmt.Errorf("cannot apply %v", op)
	}
	return nil
}

// ReplayEffective applies ops, a network's effective-operation log, to
// seq in order, joins drawing their initial IDs from joinR, the stream
// the network's joiners were given theirs from. It fails if a join
// lands in another slot or draws another initial ID than the log
// records.
func ReplayEffective(seq *core.State, ops []Op, healer core.Healer, joinR *rng.RNG) error {
	for i := range ops {
		if err := ops[i].Apply(seq, healer, joinR); err != nil {
			return fmt.Errorf("effective op %d: %w", i, err)
		}
	}
	return nil
}
