package modelcheck

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
)

// bridgedTriangles is the canonical small overlap topology: two
// triangles {0,1,2} and {3,4,5} joined by the bridge 2–3. Killing 0
// and killing 5 have disjoint conflict regions ({0,1,2} and {3,4,5}),
// so the pipeline genuinely overlaps their epochs and the enumeration
// covers every cross-epoch interleaving.
func bridgedTriangles() *graph.Graph {
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	g.AddEdge(3, 5)
	g.AddEdge(4, 5)
	g.AddEdge(2, 3)
	return g
}

// counts is the part of a search's Result that pins what it reached:
// distinct states, terminals, crashed terminals and effective-op logs.
// A change to the mailbox, the fingerprint, the wire or the handlers
// that keeps the search identical leaves all four as they are; one that
// shrinks the search fails here instead of passing quietly. Deliveries
// is left out, because pruning the order of independent deliveries may
// cut it without changing what is reached.
type counts struct {
	States, Terminals, CrashedTerminals, Oracles int
}

func run(t *testing.T, cfg Config, want counts) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminals == 0 {
		t.Fatal("enumeration reached no terminal state")
	}
	t.Logf("states=%d terminals=%d crashedTerminals=%d oracles=%d deliveries=%d maxDepth=%d",
		res.States, res.Terminals, res.CrashedTerminals, res.Oracles,
		res.Deliveries, res.MaxDepth)
	got := counts{res.States, res.Terminals, res.CrashedTerminals, res.Oracles}
	if got != want {
		t.Fatalf("search reached %+v, want %+v", got, want)
	}
	return res
}

// TestTwoOverlappingKills enumerates every delivery order of two
// concurrent single-kill epochs with disjoint conflict regions on the
// 6-node bridged-triangle graph — the first acceptance configuration:
// a second deletion's epoch starts while the first heal (including its
// MINID flood) is still draining, in every possible relative order.
func TestTwoOverlappingKills(t *testing.T) {
	for _, healer := range []dist.HealerKind{dist.HealDASH, dist.HealSDASH} {
		cfg := Config{
			Graph:  bridgedTriangles,
			Seed:   1,
			Healer: healer,
			Ops:    []Op{{Kind: OpKill, Victim: 0}, {Kind: OpKill, Victim: 5}},
		}
		res := run(t, cfg, counts{States: 4225, Terminals: 1, Oracles: 1})
		if res.MaxDepth < 8 {
			t.Fatalf("suspiciously shallow enumeration (maxDepth=%d): epochs did not overlap?", res.MaxDepth)
		}
	}
}

// TestBatchKillOverlappingJoin is the second acceptance configuration:
// one batch kill (a connected two-victim cluster) overlapping one join
// attached to the far triangle. The batch epoch's staged protocol —
// die, cluster probe, collect, commit, zombie reaping, cluster heal —
// interleaves freely with the join's request/ack exchange.
func TestBatchKillOverlappingJoin(t *testing.T) {
	cfg := Config{
		Graph:  bridgedTriangles,
		Seed:   2,
		Healer: dist.HealDASH,
		Ops: []Op{
			{Kind: OpBatch, Batch: []int{0, 1}},
			{Kind: OpJoin, Attach: []int{4, 5}},
		},
	}
	run(t, cfg, counts{States: 9234, Terminals: 3, Oracles: 1})
}

// TestConflictingKillsSerialize kills both bridge endpoints: their
// conflict regions intersect, so the pipeline must chain the epochs in
// issue order. Every interleaving of the first epoch's tail with the
// second epoch's head must still match core applied in issue order —
// this is the dependency-chaining path of the scheduler.
func TestConflictingKillsSerialize(t *testing.T) {
	cfg := Config{
		Graph:  bridgedTriangles,
		Seed:   3,
		Healer: dist.HealDASH,
		Ops:    []Op{{Kind: OpKill, Victim: 2}, {Kind: OpKill, Victim: 3}},
	}
	run(t, cfg, counts{States: 2502, Terminals: 1, Oracles: 1})
}

// TestThreeOverlappingEpochs pushes to three concurrent epochs: two
// disjoint kills plus a join on a third, detached region of a larger
// 8-node configuration.
func TestThreeOverlappingEpochs(t *testing.T) {
	if testing.Short() {
		t.Skip("large enumeration; run without -short")
	}
	g := func() *graph.Graph {
		gr := bridgedTriangles()
		gr.AddNode() // 6
		gr.AddNode() // 7
		gr.AddEdge(6, 7)
		gr.AddEdge(5, 6) // hang the pair off the second triangle
		return gr
	}
	cfg := Config{
		Graph:  g,
		Seed:   4,
		Healer: dist.HealDASH,
		Ops: []Op{
			{Kind: OpKill, Victim: 0},
			{Kind: OpKill, Victim: 7},
			{Kind: OpJoin, Attach: []int{3, 4}},
		},
	}
	run(t, cfg, counts{States: 57834, Terminals: 1, Oracles: 1})
}

// TestCheckerCatchesLabelDrift pins that terminal verification really
// compares labels: OracleDASH heals exactly as DASH but floods no
// labels, so checking the distributed DASH rule against it must fail
// with an error naming a label, the first field that differs.
func TestCheckerCatchesLabelDrift(t *testing.T) {
	cfg := Config{
		Graph:  bridgedTriangles,
		Seed:   1,
		Healer: dist.HealDASH,
		Ops:    []Op{{Kind: OpKill, Victim: 0}},
	}
	_, err := search(cfg, core.OracleDASH{}, sim(cfg))
	if err == nil || !strings.Contains(err.Error(), "label") {
		t.Fatalf("search = %v, want a label divergence", err)
	}
}

// TestBudgetExceededIsAnError pins that a truncated search reports an
// error instead of silently passing as if it were exhaustive.
func TestBudgetExceededIsAnError(t *testing.T) {
	cfg := Config{
		Graph:  bridgedTriangles,
		Seed:   1,
		Healer: dist.HealDASH,
		Ops:    []Op{{Kind: OpKill, Victim: 0}, {Kind: OpKill, Victim: 5}},
		Budget: 10,
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("budget-truncated run must return an error")
	}
}
