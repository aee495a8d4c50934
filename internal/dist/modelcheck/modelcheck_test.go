package modelcheck

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/rng"
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
			Ops:    []dist.Op{{Kind: dist.OpKill, Victim: 0}, {Kind: dist.OpKill, Victim: 5}},
		}
		res := run(t, cfg, counts{States: 4225, Terminals: 1, Oracles: 1})
		if res.MaxDepth < 8 {
			t.Fatalf("suspiciously shallow enumeration (maxDepth=%d): epochs did not overlap?", res.MaxDepth)
		}
	}
}

// starAfterLeafKills is a hub 0 with leaves 1–4, where node 1 also
// holds leaves 5–7. Killing 5, 6 and 7 in turn heals node 1 alone, and
// a one-member reconnection set gains no edge, so δ(1) falls to −3
// while 2–4 stay at 0. Killing the hub then orphans all four, and that
// δ spread, 3 = |RT| − 1, is what SDASH needs to surrogate: it wires
// node 1 as a star to 2, 3 and 4, where DASH wires a binary tree. Every
// kill's conflict region holds node 1, so the four epochs chain.
func starAfterLeafKills() *graph.Graph {
	g := graph.New(8)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 5}, {1, 6}, {1, 7}} {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// TestSDASHSurrogateStar model-checks SDASH's surrogate star, which
// TestTwoOverlappingKills never reaches: each of its kills orphans two
// nodes, and a two-node star is DASH's one-edge tree, so its SDASH search
// is its DASH search. Here the sequential SDASH heal of the last kill
// must surrogate, and the SDASH search must differ from DASH's on the
// same config, or the star is not what was checked. On a 2-vCPU machine
// it takes ~3 s bare but ~37 s under the race detector, so the -short
// race passes skip it.
func TestSDASHSurrogateStar(t *testing.T) {
	if testing.Short() {
		t.Skip("deep enumeration; run without -short")
	}
	const seed = 3
	ops := []dist.Op{
		{Kind: dist.OpKill, Victim: 5},
		{Kind: dist.OpKill, Victim: 6},
		{Kind: dist.OpKill, Victim: 7},
		{Kind: dist.OpKill, Victim: 0},
	}
	seq := core.NewState(starAfterLeafKills(), rng.New(seed))
	var heal core.HealResult
	for _, op := range ops {
		heal = seq.DeleteAndHeal(op.Victim, core.SDASH{})
	}
	if !heal.Surrogated || heal.RTSize != 4 {
		t.Fatalf("sequential SDASH heal of the hub: %+v, want a surrogate star over 4 nodes", heal)
	}
	cfg := Config{Graph: starAfterLeafKills, Seed: seed, Healer: dist.HealDASH, Ops: ops}
	dash := run(t, cfg, counts{States: 5263, Terminals: 1, Oracles: 1})
	cfg.Healer = dist.HealSDASH
	sdash := run(t, cfg, counts{States: 4394, Terminals: 1, Oracles: 1})
	if sdash.States == dash.States && sdash.Deliveries == dash.Deliveries {
		t.Fatal("the SDASH search is the DASH search: the star was never explored")
	}
}

// TestBatchKillOverlappingJoin is the second acceptance configuration:
// one batch kill (a connected two-victim cluster) overlapping one join
// attached to the far triangle. The batch epoch's stages — die,
// tombstones, leader appointment and zombie stop, and the cluster heal
// (representative reports, wiring, flood) — interleave freely with the
// join's request/ack exchange. Every
// schedule ends in one state: the victims turn zombie before any
// tombstone goes out, so no NoN gossip reaches their state.
func TestBatchKillOverlappingJoin(t *testing.T) {
	cfg := Config{
		Graph:  bridgedTriangles,
		Seed:   2,
		Healer: dist.HealDASH,
		Ops: []dist.Op{
			{Kind: dist.OpBatch, Batch: []int{0, 1}},
			{Kind: dist.OpJoin, Attach: []int{4, 5}},
		},
	}
	run(t, cfg, counts{States: 1620, Terminals: 1, Oracles: 1})
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
		Ops:    []dist.Op{{Kind: dist.OpKill, Victim: 2}, {Kind: dist.OpKill, Victim: 3}},
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
		Ops: []dist.Op{
			{Kind: dist.OpKill, Victim: 0},
			{Kind: dist.OpKill, Victim: 7},
			{Kind: dist.OpJoin, Attach: []int{3, 4}},
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
		Ops:    []dist.Op{{Kind: dist.OpKill, Victim: 0}},
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
		Ops:    []dist.Op{{Kind: dist.OpKill, Victim: 0}, {Kind: dist.OpKill, Victim: 5}},
		Budget: 10,
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("budget-truncated run must return an error")
	}
}

// TestLogKeyKeepsEveryField pins the oracle cache's key: logs that
// differ in any one field of one op, or only in a nil against an empty
// batch, get different keys, so a crashed terminal is never checked
// against another log's oracle.
func TestLogKeyKeepsEveryField(t *testing.T) {
	base := dist.Op{Kind: dist.OpJoin, Victim: 1, Batch: []int{2}, NewID: 3, Attach: []int{4}, InitID: 5}
	variants := []func(*dist.Op){
		func(op *dist.Op) { op.Kind = dist.OpKill },
		func(op *dist.Op) { op.Victim = 9 },
		func(op *dist.Op) { op.Batch = []int{9} },
		func(op *dist.Op) { op.NewID = 9 },
		func(op *dist.Op) { op.Attach = []int{9} },
		func(op *dist.Op) { op.InitID = 9 },
	}
	seen := map[string]int{logKey([]dist.Op{base}): -1}
	for i, change := range variants {
		op := base
		change(&op)
		key := logKey([]dist.Op{op})
		if j, dup := seen[key]; dup {
			t.Fatalf("variant %d shares key %q with %d", i, key, j)
		}
		seen[key] = i
	}
	if logKey([]dist.Op{{Kind: dist.OpBatch}}) == logKey([]dist.Op{{Kind: dist.OpBatch, Batch: []int{}}}) {
		t.Fatal("a nil and an empty batch share a key")
	}
}
