package modelcheck

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
)

// TestMessageLossExhaustive is the message-loss acceptance
// configuration: one kill on a 4-node graph with a drop budget of 2 and
// a dup budget of 1, enumerated exhaustively. Every interleaving of
// frame loss, duplication, and retransmission with the heal protocol
// must still converge to the exact sequential result — the reliable
// channel makes the faults invisible above the mailbox. Short mode
// shrinks the budgets to one drop (the full budgets multiply the state
// space past what the repo-wide -race -short run can afford).
func TestMessageLossExhaustive(t *testing.T) {
	diamond := func() *graph.Graph {
		g := graph.New(4)
		g.AddEdge(0, 1)
		g.AddEdge(0, 2)
		g.AddEdge(1, 3)
		g.AddEdge(2, 3)
		return g
	}
	cfg := Config{
		Graph:  diamond,
		Seed:   11,
		Healer: dist.HealDASH,
		Ops:    []Op{{Kind: OpKill, Victim: 0}},
		Drops:  2,
		Dups:   1,
	}
	want := counts{States: 209903, Terminals: 6, Oracles: 1}
	if testing.Short() {
		cfg.Drops, cfg.Dups = 1, 0
		want = counts{States: 2593, Terminals: 2, Oracles: 1}
	}
	res := run(t, cfg, want)
	if res.Oracles != 1 {
		t.Fatalf("loss-only run saw %d distinct effective logs, want 1 (faults must not change the oracle)", res.Oracles)
	}
	if res.CrashedTerminals != 0 {
		t.Fatalf("loss-only run recorded %d crashed terminals", res.CrashedTerminals)
	}
}

// TestLeaderCrashExhaustive is the leader-crash acceptance
// configuration: one kill on the 6-node bridged-triangle graph with a
// crash budget of 1 aimed at the victim's orphans — so the enumeration
// fail-stops the round leader (and the non-leader orphan) at every
// eligible instant, including mid-heal with reports already collected.
// Schedules where the crash fires must match the effective-op oracle
// (the kill aborted, {orphan, victim} healed as one batch); schedules
// where it never fires must match the plain kill oracle.
func TestLeaderCrashExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("large enumeration; run without -short")
	}
	cfg := Config{
		Graph:        bridgedTriangles,
		Seed:         12,
		Healer:       dist.HealDASH,
		Ops:          []Op{{Kind: OpKill, Victim: 0}},
		Crashes:      1,
		CrashTargets: []int{1, 2}, // victim 0's orphans: leader + reporter
	}
	res := run(t, cfg, counts{States: 1251, Terminals: 18, CrashedTerminals: 17, Oracles: 3})
	if res.CrashedTerminals == 0 {
		t.Fatal("no terminal state crashed: the schedule space never exercised recovery")
	}
	if res.CrashedTerminals == res.Terminals {
		t.Fatal("every terminal crashed: the no-fault baseline was never enumerated")
	}
	if res.Oracles < 2 {
		t.Fatalf("saw %d effective logs, want ≥2 (crash must rewrite history)", res.Oracles)
	}
}

// TestStandaloneCrashExhaustive crashes a node that is in no epoch's
// region: the supervisor must run a pure recovery epoch (batch heal of
// the singleton) with no abort, concurrently with an unrelated kill on
// the other triangle.
func TestStandaloneCrashExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("large enumeration; run without -short")
	}
	cfg := Config{
		Graph:        bridgedTriangles,
		Seed:         13,
		Healer:       dist.HealDASH,
		Ops:          []Op{{Kind: OpKill, Victim: 5}},
		Crashes:      1,
		CrashTargets: []int{1}, // not in kill(5)'s region
	}
	res := run(t, cfg, counts{States: 167, Terminals: 2, CrashedTerminals: 1, Oracles: 2})
	if res.CrashedTerminals == 0 {
		t.Fatal("no terminal state crashed")
	}
	if res.CrashedTerminals == res.Terminals {
		t.Fatal("every terminal crashed: the no-fault baseline was never enumerated")
	}
}

// TestCrashNoticeOrderExhaustive pins the recovery's notice ordering:
// with the crashed node's index below the victim's (W = {4, 5}), a
// survivor that discarded the victim's death notice (abort processed
// first) still holds the edge to the exited victim when the crash
// notices arrive. Unless edges to exited members are dropped before
// crashed ones, its NoNRemove gossip wedges in the victim's dead
// mailbox — found by fuzzing, locked in here exhaustively.
func TestCrashNoticeOrderExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("large enumeration; run without -short")
	}
	cfg := Config{
		Graph:        bridgedTriangles,
		Seed:         14,
		Healer:       dist.HealDASH,
		Ops:          []Op{{Kind: OpKill, Victim: 5}},
		Crashes:      1,
		CrashTargets: []int{4}, // victim 5's orphan, with a smaller index
	}
	res := run(t, cfg, counts{States: 345, Terminals: 6, CrashedTerminals: 5, Oracles: 2})
	if res.CrashedTerminals == 0 {
		t.Fatal("no terminal state crashed: the schedule space never exercised recovery")
	}
	if res.Oracles < 2 {
		t.Fatalf("saw %d effective logs, want ≥2", res.Oracles)
	}
}

// TestFaultyMatchesFaultFree pins that the hostile wire with zero
// budgets degenerates to exactly the fault-free enumeration: the search
// over dist.FaultSim reports the same result, field for field, as Run's
// search over dist.Sim, so FaultSim itself adds no behavior.
func TestFaultyMatchesFaultFree(t *testing.T) {
	cfg := Config{
		Graph:  bridgedTriangles,
		Seed:   1,
		Healer: dist.HealDASH,
		Ops:    []Op{{Kind: OpKill, Victim: 0}, {Kind: OpKill, Victim: 5}},
	}
	faulty, err := search(cfg, cfg.Healer.Healer(), faultSim(cfg))
	if err != nil {
		t.Fatal(err)
	}
	want := run(t, cfg, counts{States: 4225, Terminals: 1, Oracles: 1})
	if faulty != want {
		t.Fatalf("zero-budget FaultSim search %+v, Sim search %+v", faulty, want)
	}
	if want.Oracles != 1 || want.CrashedTerminals != 0 {
		t.Fatalf("fault-free run saw %d effective logs and %d crashed terminals, want 1 and 0",
			want.Oracles, want.CrashedTerminals)
	}
}
