package dist

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

// TestBatchProbeMessageAccounting quantifies the batch epoch's G′
// component-probe cost, the Lemma-8-style bound left open when the
// batch protocol landed: per cluster, the probe is O(|G′ component|).
//
// The argument mirrors Lemma 8's charging scheme. Each candidate seeds
// one msgCompProbeStart. A node forwards the relaxation wave only when
// its known component minimum improves, which can happen at most once
// per candidate in its component — so each node forwards at most k_c
// times, and a forward costs its G′ degree in messages. Summing degree
// over a component gives 2·E(component), hence per cluster:
//
//	probe messages ≤ k_c + k_c · 2·E(U_c)
//
// where k_c is the cluster's candidate count and U_c the union of the
// G′ components its candidates occupy. The test measures the actual
// per-kind message counters for one large batch epoch against that
// bound computed from the sequential engine's final state (final G′
// contains every intermediate topology the probes ran on, since heals
// only add edges), and records the measured constants: in practice the
// wave converges in near-sorted order and lands well under the bound.
func TestBatchProbeMessageAccounting(t *testing.T) {
	const n = 400
	master := rng.New(77)
	g := gen.BarabasiAlbert(n, 3, master.Split())
	seq := core.NewState(g.Clone(), master.Split())
	ids := InitIDs(seq)
	nw := NewKind(g.Clone(), ids, HealDASH)
	defer nw.Close()

	// Warm up with single kills so G′ grows real components for the
	// probes to traverse.
	attR := master.Split()
	for i := 0; i < 60; i++ {
		alive := seq.G.AliveNodes()
		x := alive[attR.Intn(len(alive))]
		seq.DeleteAndHeal(x, core.DASH{})
		mustRun(t, nw, Op{Kind: OpKill, Victim: x})
	}

	batch := pickBatch(seq.G, 16, attR)
	// Per-cluster candidate sets from the pre-deletion state.
	clusterCands := coreClusters(seq.G, batch)

	startBefore := nw.msgKindTotal(msgCompProbeStart)
	probeBefore := nw.msgKindTotal(msgCompProbe)
	seq.DeleteBatchAndHeal(batch)
	mustRun(t, nw, Op{Kind: OpBatch, Batch: batch})
	starts := nw.msgKindTotal(msgCompProbeStart) - startBefore
	probes := nw.msgKindTotal(msgCompProbe) - probeBefore

	assertStateEqual(t, 0, nw, seq)

	// The bound, from the sequential engine's final G′ (a superset of
	// every topology the probes actually ran on).
	comp := seq.Gp.ComponentLabels()
	compSize := make(map[int]int)
	compEdges := make(map[int]int)
	for _, v := range seq.Gp.AliveNodes() {
		compSize[comp[v]]++
		for _, u := range seq.Gp.Neighbors(v) {
			if int(u) > v {
				compEdges[comp[v]]++
			}
		}
	}
	var bound, totalCands, totalCompNodes int64
	for _, cands := range clusterCands {
		touched := make(map[int]struct{})
		for u := range cands {
			if seq.Gp.Alive(u) {
				touched[comp[u]] = struct{}{}
			}
		}
		k := int64(len(cands))
		var uSize, uEdges int64
		for c := range touched {
			uSize += int64(compSize[c])
			uEdges += int64(compEdges[c])
		}
		bound += k + k*2*uEdges
		totalCands += k
		totalCompNodes += uSize
	}

	if starts+probes > bound {
		t.Fatalf("probe traffic %d (starts=%d, forwards=%d) exceeds the O(k·|component|) bound %d",
			starts+probes, starts, probes, bound)
	}
	if totalCands == 0 || totalCompNodes == 0 {
		t.Fatal("degenerate batch: no candidates or empty components; pick a different seed")
	}
	// Measured constants for the record: messages per candidate per
	// component node, against the worst-case constant 2.
	measured := float64(starts+probes) / float64(totalCands*totalCompNodes)
	t.Logf("batch of %d victims, %d clusters: %d probe messages (%d starts + %d forwards)",
		len(batch), len(clusterCands), starts+probes, starts, probes)
	t.Logf("Σk=%d, Σ|U|=%d, bound=%d; measured constant %.3f msgs/(candidate·component-node) vs 2.0 worst case",
		totalCands, totalCompNodes, bound, measured)
}

// TestSingleKillNotifyAccounting pins the original Lemma 8 quantity on
// the live network: the label notifications a single kill's MINID flood
// triggers are bounded by the adopters' total G degree — each node
// whose label drops notifies each G neighbor once per drop, and under
// unique IDs a node's label drops at most once per heal epoch.
func TestSingleKillNotifyAccounting(t *testing.T) {
	const n = 200
	master := rng.New(9)
	g := gen.BarabasiAlbert(n, 3, master.Split())
	seq := core.NewState(g.Clone(), master.Split())
	ids := InitIDs(seq)
	nw := NewKind(g.Clone(), ids, HealDASH)
	defer nw.Close()

	attR := master.Split()
	for i := 0; i < 40; i++ {
		alive := seq.G.AliveNodes()
		x := alive[attR.Intn(len(alive))]

		before := nw.msgKindTotal(msgLabelNotify)
		seq.DeleteAndHeal(x, core.DASH{})
		mustRun(t, nw, Op{Kind: OpKill, Victim: x})
		notifies := nw.msgKindTotal(msgLabelNotify) - before

		// Upper bound: every alive node adopts at most once and
		// notifies at most its degree.
		var degSum int64
		for _, v := range seq.G.AliveNodes() {
			degSum += int64(seq.G.Degree(v))
		}
		if notifies > degSum {
			t.Fatalf("kill %d: %d label notifications exceed total degree %d", x, notifies, degSum)
		}
	}
	snap := nw.Snapshot()
	if !snap.G.Equal(seq.G) {
		t.Fatal("distributed G diverged from sequential")
	}
}
