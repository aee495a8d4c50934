package dist

import (
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// newTestNet builds a small distributed network over a seeded BA graph.
func newTestNet(t *testing.T, n int, seed uint64, kind HealerKind) *Network {
	t.Helper()
	g := gen.BarabasiAlbert(n, 3, rng.New(seed))
	r := rng.New(seed + 1)
	ids := make([]uint64, n)
	seen := make(map[uint64]bool, n)
	for v := range ids {
		id := r.Uint64()
		for seen[id] {
			id = r.Uint64()
		}
		seen[id] = true
		ids[v] = id
	}
	return NewKind(g, ids, kind)
}

func TestKillHealsAndQuiesces(t *testing.T) {
	nw := newTestNet(t, 48, 1, HealDASH)
	defer nw.Close()
	for v := 0; v < 24; v++ {
		mustRun(t, nw, Op{Kind: OpKill, Victim: v})
		snap := nw.Snapshot()
		if !snap.G.Connected() {
			t.Fatalf("after kill %d: disconnected", v)
		}
		if !snap.Gp.IsSubgraphOf(snap.G) {
			t.Fatalf("after kill %d: G′ ⊄ G", v)
		}
		if !snap.Gp.IsForest() {
			t.Fatalf("after kill %d: G′ has a cycle (Lemma 1 violated)", v)
		}
	}
	_, _, rounds := nw.FloodStats()
	if rounds != 24 {
		t.Fatalf("rounds = %d, want 24", rounds)
	}
}

// TestKillToEmpty drains an entire network one node at a time: every
// round must quiesce and the final snapshot must be empty.
func TestKillToEmpty(t *testing.T) {
	const n = 40
	nw := newTestNet(t, n, 2, HealSDASH)
	defer nw.Close()
	for v := 0; v < n; v++ {
		mustRun(t, nw, Op{Kind: OpKill, Victim: v})
	}
	snap := nw.Snapshot()
	if snap.G.NumAlive() != 0 || snap.G.NumEdges() != 0 {
		t.Fatalf("network not empty: %d alive, %d edges", snap.G.NumAlive(), snap.G.NumEdges())
	}
}

func TestKillIsolatedNodes(t *testing.T) {
	g := graph.New(3) // no edges: death notices go nowhere
	nw := NewKind(g, []uint64{10, 20, 30}, HealDASH)
	defer nw.Close()
	for v := 0; v < 3; v++ {
		mustRun(t, nw, Op{Kind: OpKill, Victim: v})
	}
	if snap := nw.Snapshot(); snap.G.NumAlive() != 0 {
		t.Fatalf("%d nodes still alive", snap.G.NumAlive())
	}
}

// TestKillDeadNodePanics pins the panic of KillAsync, the shim the
// benchmark's replay still calls, where Issue would refuse.
func TestKillDeadNodePanics(t *testing.T) {
	nw := newTestNet(t, 16, 3, HealDASH)
	defer nw.Close()
	mustRun(t, nw, Op{Kind: OpKill, Victim: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("killing a dead node should panic, like core.State.Remove")
		}
	}()
	nw.KillAsync(0)
}

// TestSnapshotKeepsDeadCounters: the paper's accounting includes nodes
// that have since been deleted, so a dead node's traffic totals must
// survive in snapshots (the hub of a star sends one death notice per
// leaf, so its coordination counter is visibly non-zero).
func TestSnapshotKeepsDeadCounters(t *testing.T) {
	nw := newTestNet(t, 32, 4, HealDASH)
	defer nw.Close()
	hub := 0
	snapBefore := nw.Snapshot()
	deg := snapBefore.G.Degree(hub)
	if deg == 0 {
		t.Fatalf("node %d unexpectedly isolated", hub)
	}
	mustRun(t, nw, Op{Kind: OpKill, Victim: hub})
	snap := nw.Snapshot()
	if snap.CoordMsgs[hub] < int64(deg) {
		t.Fatalf("dead node's coordination counter %d < its %d death notices", snap.CoordMsgs[hub], deg)
	}
}

func TestNewRejectsIDMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on len(ids) != n")
		}
	}()
	NewKind(graph.New(4), []uint64{1, 2}, HealDASH)
}

func TestCloseIdempotent(t *testing.T) {
	nw := newTestNet(t, 16, 5, HealDASH)
	mustRun(t, nw, Op{Kind: OpKill, Victim: 3})
	nw.Close()
	nw.Close() // must not hang or panic
}

func TestTrackerQuiescence(t *testing.T) {
	tr := &tracker{}
	if !tr.wait(time.Millisecond) {
		t.Fatal("empty tracker should be quiescent immediately")
	}
	var zeros []uint64
	tr.onZero = func(epoch uint64) { zeros = append(zeros, epoch) }
	tr.add(1, 2)
	tr.add(2, 1)
	if tr.wait(10 * time.Millisecond) {
		t.Fatal("tracker with in-flight messages reported quiescent")
	}
	if got := tr.pendingEpoch(1); got != 2 {
		t.Fatalf("epoch 1 in-flight = %d, want 2", got)
	}
	tr.done(2)
	if len(zeros) != 1 || zeros[0] != 2 {
		t.Fatalf("zero callbacks after epoch 2 drained: %v, want [2]", zeros)
	}
	if tr.pendingEpoch(1) != 2 {
		t.Fatal("draining epoch 2 must not touch epoch 1's counter")
	}
	done := make(chan bool, 1)
	go func() { done <- tr.wait(5 * time.Second) }()
	tr.done(1)
	tr.done(1)
	if !<-done {
		t.Fatal("waiter not released when counter hit zero")
	}
	if len(zeros) != 2 || zeros[1] != 1 {
		t.Fatalf("zero callbacks after both epochs drained: %v, want [2 1]", zeros)
	}
	if tr.pending() != 0 {
		t.Fatalf("pending = %d, want 0", tr.pending())
	}
}

// TestWatchdogDumpOnLostMessage is the quiescence watchdog test: with a
// lossy transport that drops every heal report, the round can never
// complete, and the kill epoch's Wait must detect that and return an error
// carrying a usable diagnostic dump rather than deadlocking.
func TestWatchdogDumpOnLostMessage(t *testing.T) {
	nw := newTestNet(t, 24, 6, HealDASH)
	defer nw.Close()
	nw.testDrop = func(to int, msg message) bool { return msg.kind == msgHealReport }

	err := mustIssue(t, nw, Op{Kind: OpKill, Victim: 0}).Wait(300 * time.Millisecond)
	if err == nil {
		t.Fatal("round quiesced despite every heal report being dropped")
	}
	for _, want := range []string{"did not quiesce", "in-flight"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("watchdog error missing %q:\n%s", want, err)
		}
	}
	if nw.track.pending() == 0 {
		t.Error("dropped messages should remain visibly in flight")
	}
}

// TestSnapshotAfterWatchdogTimeout: a round that fails its watchdog
// leaves a victim whose goroutine already exited; Snapshot must report
// it from archived state instead of blocking forever on its mailbox.
func TestSnapshotAfterWatchdogTimeout(t *testing.T) {
	nw := newTestNet(t, 24, 8, HealDASH)
	defer nw.Close()
	nw.testDrop = func(to int, msg message) bool { return msg.kind == msgHealReport }
	if err := mustIssue(t, nw, Op{Kind: OpKill, Victim: 0}).Wait(300 * time.Millisecond); err == nil {
		t.Fatal("round quiesced despite dropped heal reports")
	}

	done := make(chan *Snap, 1)
	go func() { done <- nw.Snapshot() }()
	select {
	case snap := <-done:
		if snap.G.Alive(0) {
			t.Fatal("victim of the failed round still reported alive")
		}
		if snap.CoordMsgs[0] == 0 {
			t.Fatal("victim's archived death-notice traffic missing from snapshot")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Snapshot hung after a watchdog timeout")
	}
}

// TestDumpState sanity-checks the diagnostic renderer on a healthy net.
func TestDumpState(t *testing.T) {
	nw := newTestNet(t, 16, 7, HealDASH)
	defer nw.Close()
	dump := nw.DumpState()
	for _, want := range []string{"in-flight", "live nodes"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}
