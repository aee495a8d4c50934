package dist

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// twoTriangles is the bridged-triangle overlap topology also used by
// the model checker: killing 0 and killing 5 have disjoint conflict
// regions, so their epochs run fully concurrently.
func twoTriangles() *graph.Graph {
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

// TestDisjointEpochsLaunchConcurrently pins the scheduler's core
// behavior: two kills with disjoint conflict regions are both launched
// immediately, while a third, conflicting kill is queued behind its
// dependency and only launches when it completes.
func TestDisjointEpochsLaunchConcurrently(t *testing.T) {
	seq := core.NewState(twoTriangles(), rng.New(1))
	ids := InitIDs(seq)
	s := NewSim(twoTriangles(), ids, HealDASH)
	nw := s.Network()
	ep0 := nw.KillAsync(0)
	ep5 := nw.KillAsync(5)
	ep1 := nw.KillAsync(1) // region {0,1,2,...} intersects kill 0's

	pi := nw.pipe
	pi.mu.Lock()
	if !pi.epochs[ep0.ID()].launched || !pi.epochs[ep5.ID()].launched {
		pi.mu.Unlock()
		t.Fatal("disjoint kill epochs were not launched concurrently")
	}
	dep := pi.epochs[ep1.ID()]
	if dep.launched {
		pi.mu.Unlock()
		t.Fatal("conflicting kill epoch launched before its dependency completed")
	}
	if _, ok := dep.deps[ep0.ID()]; !ok {
		pi.mu.Unlock()
		t.Fatalf("kill 1 should depend on kill 0's epoch, deps=%v", dep.deps)
	}
	pi.mu.Unlock()

	// Drive to quiescence in FIFO order and verify against core applied
	// in issue order.
	for {
		evs := s.Enabled()
		if len(evs) == 0 {
			break
		}
		s.Apply(evs[0])
	}
	for _, ep := range []*Epoch{ep0, ep5, ep1} {
		if !ep.Done() {
			t.Fatalf("epoch %d never completed:\n%s", ep.ID(), nw.DumpState())
		}
	}

	for _, x := range []int{0, 5, 1} {
		seq.DeleteAndHeal(x, core.DASH{})
	}
	assertStateEqual(t, 0, nw, seq)
	if !nw.Snapshot().G.Connected() {
		t.Fatal("survivors disconnected")
	}
}

// TestWatchdogAttributesStalledEpoch is the overlapping-epoch watchdog
// regression: with a lossy transport that swallows exactly one epoch's
// heal reports, that epoch stalls while an overlapping disjoint epoch
// completes — and the watchdog dump must attribute the stall to the
// stalled epoch's ID (per-epoch in-flight counters and the epoch's
// stage), not to an anonymous global count.
func TestWatchdogAttributesStalledEpoch(t *testing.T) {
	g := twoTriangles()
	nw := NewKind(g, []uint64{60, 10, 20, 30, 40, 50}, HealDASH)
	defer nw.Close()
	nw.testDrop = func(to int, msg message) bool {
		return msg.kind == msgHealReport && msg.victim == 0
	}

	epStalled := nw.KillAsync(0)
	epOK := nw.KillAsync(5)

	if err := epOK.Wait(5 * time.Second); err != nil {
		t.Fatalf("disjoint epoch should complete despite the stalled one: %v", err)
	}
	err := epStalled.Wait(200 * time.Millisecond)
	if err == nil {
		t.Fatal("epoch with dropped heal reports cannot complete; Wait must time out")
	}
	msg := err.Error()
	if !strings.Contains(msg, "did not quiesce") {
		t.Fatalf("watchdog error lost its signature line:\n%s", msg)
	}
	if !strings.Contains(msg, fmt.Sprintf("epoch %d (kill 0)", epStalled.ID())) {
		t.Fatalf("watchdog error does not name the stalled epoch %d:\n%s", epStalled.ID(), msg)
	}
	// The per-epoch counter section must attribute the in-flight
	// messages to the stalled epoch's ID...
	inFlight := regexp.MustCompile(fmt.Sprintf(`(?m)^\s*epoch %d: [1-9]\d* in flight$`, epStalled.ID()))
	if !inFlight.MatchString(msg) {
		t.Fatalf("per-epoch in-flight counters missing or misattributed:\n%s", msg)
	}
	// ...and must NOT still be tracking the completed epoch.
	if strings.Contains(msg, fmt.Sprintf("epoch %d:", epOK.ID())) {
		t.Fatalf("completed epoch %d still appears in the dump:\n%s", epOK.ID(), msg)
	}
	// The scheduler section names the stalled epoch's stage.
	if !strings.Contains(msg, fmt.Sprintf("epoch %d: kill stage", epStalled.ID())) {
		t.Fatalf("scheduler dump does not show the stalled epoch's stage:\n%s", msg)
	}
}

// TestAsyncChurnConverges drives windows of overlapping async kills and
// joins through a live (goroutine) network, draining between windows,
// and demands the exact sequential core state at every drain point —
// the concurrent-runtime counterpart of the model checker's exhaustive
// small-config result, and the test that actually exercises goroutine
// parallelism across overlapping epochs (run it under -race).
func TestAsyncChurnConverges(t *testing.T) {
	const n = 300
	master := rng.New(42)
	g := gen.BarabasiAlbert(n, 3, master.Split())
	seq := core.NewState(g.Clone(), master.Split())
	ids := InitIDs(seq)
	nw := NewKind(g.Clone(), ids, HealDASH)
	defer nw.Close()

	opR := master.Split()
	joinR := master.Split()
	// aliveMirror tracks issue-order liveness so no window targets a
	// node an earlier async op in the same window is killing.
	aliveMirror := make(map[int]struct{}, n)
	for v := 0; v < n; v++ {
		aliveMirror[v] = struct{}{}
	}
	pick := func() int {
		// Sort before drawing so map iteration order cannot leak into
		// the op sequence.
		alive := make([]int, 0, len(aliveMirror))
		for v := range aliveMirror {
			alive = append(alive, v)
		}
		slices.Sort(alive)
		return alive[opR.Intn(len(alive))]
	}

	for window := 0; window < 12; window++ {
		for i := 0; i < 8 && len(aliveMirror) > 10; i++ {
			if opR.Intn(4) == 0 {
				a, b := pick(), pick()
				attach := []int{a}
				if b != a {
					attach = append(attach, b)
				}
				v := seq.Join(attach, joinR)
				gotV, _ := nw.JoinAsync(attach, seq.InitID(v))
				if gotV != v {
					t.Fatalf("window %d: distributed join slot %d, sequential %d", window, gotV, v)
				}
				aliveMirror[v] = struct{}{}
			} else {
				x := pick()
				seq.DeleteAndHeal(x, core.DASH{})
				nw.KillAsync(x)
				delete(aliveMirror, x)
			}
		}
		if err := nw.Drain(testTimeout); err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		// Includes the Lemma 9 accounting, whose exactness survives
		// pipelining: floods are confined to their epoch's conflict region.
		assertStateEqual(t, window, nw, seq)
	}
}

// TestSerialModeMatchesPipelined pins that SetSerial(true) — the
// barrier-equivalent baseline the benchmarks compare against — computes
// the same states the pipelined scheduler does.
func TestSerialModeMatchesPipelined(t *testing.T) {
	const n = 120
	master := rng.New(7)
	g := gen.BarabasiAlbert(n, 3, master.Split())
	seq := core.NewState(g.Clone(), master.Split())
	ids := InitIDs(seq)
	nw := NewKind(g.Clone(), ids, HealDASH)
	defer nw.Close()
	nw.SetSerial(true)

	attR := master.Split()
	for i := 0; i < 30; i++ {
		alive := seq.G.AliveNodes()
		x := alive[attR.Intn(len(alive))]
		seq.DeleteAndHeal(x, core.DASH{})
		nw.KillAsync(x)
	}
	if err := nw.Drain(testTimeout); err != nil {
		t.Fatal(err)
	}
	assertStateEqual(t, 0, nw, seq)
}
