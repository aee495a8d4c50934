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

// ReplayEffective applies ops, a network's effective-operation log, to
// seq in order: kills heal with healer, batches (crash recoveries
// included) with the batch rule, and joins draw their initial IDs from
// joinR, the stream the network's joiners were given theirs from. It
// fails if a join lands in another slot or draws another initial ID
// than the log records.
func ReplayEffective(seq *core.State, ops []EffectiveOp, healer core.Healer, joinR *rng.RNG) error {
	for i, op := range ops {
		switch op.Kind {
		case EffKill:
			seq.DeleteAndHeal(op.Victim, healer)
		case EffJoin:
			v := seq.Join(op.Attach, joinR)
			if v != op.NewID || seq.InitID(v) != op.InitID {
				return fmt.Errorf("effective op %d: replay join (slot %d, id %d), network (slot %d, id %d)",
					i, v, seq.InitID(v), op.NewID, op.InitID)
			}
		case EffBatch:
			seq.DeleteBatchAndHeal(op.Batch)
		}
	}
	return nil
}
