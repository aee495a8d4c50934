package dist

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist/chaos"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// buildChaosPair assembles a chaos network and its sequential twin over
// one seeded scale-free topology.
func buildChaosPair(t *testing.T, n int, seed uint64, plan *chaos.Plan) (*Network, *core.State) {
	t.Helper()
	master := rng.New(seed)
	g := gen.BarabasiAlbert(n, 3, master.Split())
	seq := core.NewState(g.Clone(), master.Split())
	ids := InitIDs(seq)
	nw, err := NewChaos(g.Clone(), ids, HealDASH, plan)
	if err != nil {
		t.Fatal(err)
	}
	return nw, seq
}

// TestChaosLossDifferential runs windows of overlapping kill epochs over
// a transport that drops, duplicates, and delays at 10% each, and
// demands the drained network still matches the sequential engine
// bit-for-bit — the reliable channel must make the faults invisible
// above the mailbox. It then asserts the transport really injected
// every fault class, so a silently disabled fault path cannot pass.
func TestChaosLossDifferential(t *testing.T) {
	plan := &chaos.Plan{
		Seed:  42,
		Drop:  0.10,
		Dup:   0.10,
		Delay: 0.10,
	}
	nw, seq := buildChaosPair(t, 48, 1001, plan)
	defer nw.Close()

	vicR := rng.New(7)
	for window := 0; window < 4; window++ {
		alive := seq.G.AliveNodes()
		taken := make(map[int]bool)
		var victims []int
		for len(victims) < 5 {
			v := alive[vicR.Intn(len(alive))]
			if !taken[v] {
				taken[v] = true
				victims = append(victims, v)
			}
		}
		for _, v := range victims {
			mustIssue(t, nw, Op{Kind: OpKill, Victim: v})
		}
		for _, v := range victims {
			seq.DeleteAndHeal(v, core.DASH{})
		}
		if err := nw.Drain(testTimeout); err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		assertStateEqual(t, window, nw, seq)
	}

	st, ok := nw.ChaosTransportStats()
	if !ok {
		t.Fatal("chaos network reports no chaos transport")
	}
	if st.Drops == 0 || st.Dups == 0 || st.Delays == 0 || st.Retransmits == 0 {
		t.Fatalf("fault classes not all exercised: %+v", st)
	}
	if st.Crashes != 0 {
		t.Fatalf("crashes injected without a crash schedule: %+v", st)
	}
}

// TestChaosReorderStressFIFO is the regression for the arrive() FIFO
// race: with heavy duplication and sub-millisecond delays over a tiny
// (clamped) RTO, retransmitted frames constantly race delayed
// duplicates of their predecessors on the same channel. If the delivery
// cursor advance and the mailbox push were not one atomic step, a later
// frame could be pushed before an earlier one and the differential (or
// a handler panic, e.g. a death notice for an unknown neighbor) would
// catch it. The tiny RTO also pins that a sub-minimum plan RTO clamps
// instead of panicking the retransmit ticker.
func TestChaosReorderStressFIFO(t *testing.T) {
	plan := &chaos.Plan{
		Seed:     99,
		Drop:     0.20,
		Dup:      0.35,
		Delay:    0.35,
		MaxDelay: 300 * time.Microsecond,
		RTO:      time.Nanosecond, // clamps to chaos.MinRTO
	}
	nw, seq := buildChaosPair(t, 32, 2024, plan)
	defer nw.Close()

	vicR := rng.New(11)
	for window := 0; window < 2; window++ {
		alive := seq.G.AliveNodes()
		taken := make(map[int]bool)
		var victims []int
		for len(victims) < 4 {
			v := alive[vicR.Intn(len(alive))]
			if !taken[v] {
				taken[v] = true
				victims = append(victims, v)
			}
		}
		for _, v := range victims {
			mustIssue(t, nw, Op{Kind: OpKill, Victim: v})
		}
		for _, v := range victims {
			seq.DeleteAndHeal(v, core.DASH{})
		}
		if err := nw.Drain(testTimeout); err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		assertStateEqual(t, window, nw, seq)
	}
	st, ok := nw.ChaosTransportStats()
	if !ok {
		t.Fatal("chaos network reports no chaos transport")
	}
	if st.Dups == 0 || st.Delays == 0 || st.Retransmits == 0 {
		t.Fatalf("reorder machinery not exercised: %+v", st)
	}
}

// TestChaosFirstAttemptClaimedAtEnqueue pins the retransmit race
// deterministically: the test hook runs a retransmit scan in the window
// between a frame's publication in the unacked set and its first
// transmission, on every frame. The scan must find the first attempt
// already on record. Before the fix the frame sat there with attempts
// == 0, so the scan's backoff shift went negative and panicked
// (TestChaosDifferentialSchedules hit it in most runs), and its zero
// lastTx made it look overdue, sending attempt 1 from the scanner.
func TestChaosFirstAttemptClaimedAtEnqueue(t *testing.T) {
	plan := &chaos.Plan{Seed: 5, RTO: chaos.MinRTO}
	nw, seq := buildChaosPair(t, 24, 31, plan)
	defer nw.Close()
	ct := nw.transport.(*chaosTransport)
	base := plan.RTOOrDefault()
	var scans atomic.Int64
	ct.onEnqueue = func(ch *relChan, seq uint64) {
		scans.Add(1)
		ch.mu.Lock()
		for _, fr := range ch.unacked {
			if fr.attempts < 1 || fr.lastTx.IsZero() {
				t.Errorf("frame %d visible with attempts=%d lastTx=%v", fr.seq, fr.attempts, fr.lastTx)
			}
		}
		// fresh is gone only if a retransmission (its first attempt is on
		// record, so an RTO can elapse before this hook runs) was acked.
		fresh := ch.unacked[seq]
		var firstTx time.Time
		if fresh != nil {
			firstTx = fresh.lastTx
		}
		ch.mu.Unlock()
		if fresh == nil {
			return
		}
		// Scan at the instant of the recorded first attempt, so the
		// verdict does not depend on how long this hook took to run.
		for _, fr := range ch.due(base, firstTx) {
			if fr == fresh {
				t.Errorf("frame %d due for retransmission before its first transmission", fr.seq)
			}
		}
	}

	for _, v := range []int{3, 11, 17} {
		mustIssue(t, nw, Op{Kind: OpKill, Victim: v})
		seq.DeleteAndHeal(v, core.DASH{})
	}
	if err := nw.Drain(testTimeout); err != nil {
		t.Fatal(err)
	}
	assertStateEqual(t, 0, nw, seq)
	if scans.Load() == 0 {
		t.Fatal("hook never ran: no node-to-node frame was sent")
	}
}

// TestChaosPartitionHeals pins that a burst partition (attempt-bounded
// drop window around a node group) delays but does not corrupt a heal.
func TestChaosPartitionHeals(t *testing.T) {
	plan := &chaos.Plan{
		Seed:       5,
		Partitions: []chaos.Partition{{Group: []int{1, 2, 3}, Attempts: 3}},
	}
	nw, seq := buildChaosPair(t, 24, 77, plan)
	defer nw.Close()
	for i, v := range []int{5, 9, 1} {
		seq.DeleteAndHeal(v, core.DASH{})
		mustRun(t, nw, Op{Kind: OpKill, Victim: v})
		assertStateEqual(t, i, nw, seq)
	}
}

// replayEffective replays a network's effective-operation log through a
// fresh sequential engine built from the same topology seed.
func replayEffective(t *testing.T, n int, seed uint64, ops []Op) *core.State {
	t.Helper()
	master := rng.New(seed)
	g := gen.BarabasiAlbert(n, 3, master.Split())
	seq := core.NewState(g, master.Split())
	if err := ReplayEffective(seq, ops, core.DASH{}, rng.New(seed+1)); err != nil {
		t.Fatal(err)
	}
	return seq
}

// TestChaosLeaderCrashRecovery crashes whoever is leading a heal at the
// first heal-report delivery, then verifies the drained network against
// the sequential replay of its own effective-operation log: the aborted
// kill must be gone, replaced by a batch deletion of {leader, victim}.
// A further kill after recovery must also still work.
func TestChaosLeaderCrashRecovery(t *testing.T) {
	const n, seed = 24, 909
	plan := &chaos.Plan{
		Seed:    1,
		Crashes: []chaos.CrashPoint{{Target: chaos.Wildcard, Kind: "heal-report", Nth: 1}},
	}
	nw, seq := buildChaosPair(t, n, seed, plan)
	defer nw.Close()

	// Kill a high-degree node so the round has several orphans and a
	// real leader/reporter split (degree 1 would send no reports at all,
	// and the crash point would never fire).
	victim, deg := -1, 0
	for _, v := range seq.G.AliveNodes() {
		if d := seq.G.Degree(v); d > deg {
			victim, deg = v, d
		}
	}
	mustRun(t, nw, Op{Kind: OpKill, Victim: victim})
	if err := nw.Drain(testTimeout); err != nil {
		t.Fatal(err)
	}
	if got := nw.CrashCount(); got != 1 {
		t.Fatalf("CrashCount = %d, want 1", got)
	}
	crashed := nw.Crashed()
	if len(crashed) != 1 || crashed[0] == victim {
		t.Fatalf("Crashed() = %v (victim %d)", crashed, victim)
	}

	ops := nw.EffectiveOps()
	if len(ops) != 1 || ops[0].Kind != OpBatch || len(ops[0].Batch) != 2 {
		t.Fatalf("EffectiveOps = %+v, want one two-member batch", ops)
	}
	oracle := replayEffective(t, n, seed, ops)
	assertStateEqual(t, 0, nw, oracle)

	// The network must still heal after recovery.
	next := -1
	for _, v := range oracle.G.AliveNodes() {
		if oracle.G.Degree(v) > 0 {
			next = v
			break
		}
	}
	oracle.DeleteAndHeal(next, core.DASH{})
	mustRun(t, nw, Op{Kind: OpKill, Victim: next})
	assertStateEqual(t, 1, nw, oracle)
}

// TestChaosStandaloneCrash crashes a node that is inside no epoch
// (death-notice delivery on an unrelated heal keeps the point armed
// until an eligible receiver sees one): the supervisor must heal the
// crashed singleton as its own batch with no epoch to abort.
func TestChaosStandaloneCrash(t *testing.T) {
	const n, seed = 24, 313
	plan := &chaos.Plan{
		Seed:    2,
		Crashes: []chaos.CrashPoint{{Target: chaos.Wildcard, Kind: "label-notify", Nth: 1}},
	}
	nw, seq := buildChaosPair(t, n, seed, plan)
	defer nw.Close()

	victim := seq.G.AliveNodes()[0]
	mustRun(t, nw, Op{Kind: OpKill, Victim: victim})
	if err := nw.Drain(testTimeout); err != nil {
		t.Fatal(err)
	}
	if got := nw.CrashCount(); got != 1 {
		t.Fatalf("CrashCount = %d, want 1 (the point never found an eligible receiver)", got)
	}
	ops := nw.EffectiveOps()
	oracle := replayEffective(t, n, seed, ops)
	assertStateEqual(t, 0, nw, oracle)
}

// TestChaosPlanValidation pins NewChaos's crash-point validation:
// unknown kinds and supervisor-only kinds are both rejected.
func TestChaosPlanValidation(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	ids := []uint64{1, 2, 3}
	for _, kind := range []string{"no-such-kind", "die", "batch-heal-start", "epoch-abort"} {
		plan := &chaos.Plan{Crashes: []chaos.CrashPoint{{Target: 0, Kind: kind, Nth: 1}}}
		if _, err := NewChaos(g.Clone(), ids, HealDASH, plan); err == nil {
			t.Fatalf("crash kind %q accepted, want error", kind)
		}
	}
	nw, err := NewChaos(g, ids, HealDASH, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := nw.ChaosTransportStats(); ok {
		t.Fatal("nil plan produced a chaos transport")
	}
	nw.Close()
}

// TestStallErrorFields pins the typed stall diagnostics (satellite of
// the chaos work): a drain that times out must surface the stalled
// epoch IDs and mailbox depths as structured fields while keeping the
// legacy message text.
func TestStallErrorFields(t *testing.T) {
	master := rng.New(3)
	g := gen.BarabasiAlbert(16, 3, master.Split())
	seq := core.NewState(g.Clone(), master.Split())
	ids := InitIDs(seq)
	nw := NewKind(g, ids, HealDASH)
	defer nw.Close()
	// Swallow every heal report: the kill epoch can never finish.
	nw.testDrop = func(to int, msg message) bool { return msg.kind == msgHealReport }

	victim, deg := -1, 0
	for _, v := range seq.G.AliveNodes() {
		if d := seq.G.Degree(v); d > deg {
			victim, deg = v, d
		}
	}
	ep := mustIssue(t, nw, Op{Kind: OpKill, Victim: victim})
	err := ep.Wait(2 * time.Second)
	if err == nil {
		t.Fatal("expected stalled epoch")
	}
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("error %T does not unwrap to *StallError", err)
	}
	if stall.Epoch != ep.ID() {
		t.Fatalf("stall.Epoch = %d, want %d", stall.Epoch, ep.ID())
	}
	found := false
	for _, se := range stall.Epochs {
		if se.ID == ep.ID() && se.InFlight > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("stalled epoch %d not in %+v", ep.ID(), stall.Epochs)
	}
}

// TestTrackerNoEpochLeak is the counter-leak regression (satellite of
// the chaos work): after many concurrent short-lived epochs, the
// tracker's per-epoch counter registry must be empty again (modulo the
// epoch-0 sentinel) and no stale load may be reported — the release
// path must run for every epoch kind, recoveries and aborts included.
func TestTrackerNoEpochLeak(t *testing.T) {
	const n = 64
	master := rng.New(8)
	g := gen.BarabasiAlbert(n, 3, master.Split())
	ids := make([]uint64, n)
	idR := master.Split()
	for v := range ids {
		ids[v] = idR.Uint64()
	}
	nw := NewKind(g, ids, HealDASH)
	defer nw.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < 40; i++ {
				nw.Issue(Op{Kind: OpKill, Victim: r.Intn(n)})
			}
		}(uint64(100 + w))
	}
	wg.Wait()
	if err := nw.Drain(testTimeout); err != nil {
		t.Fatal(err)
	}

	if loads := nw.track.epochLoads(); len(loads) != 0 {
		t.Fatalf("stale epoch loads after drain: %v", loads)
	}
	leaked := 0
	nw.track.epochs.Range(func(k, v any) bool {
		if k.(uint64) != 0 {
			leaked++
		}
		return true
	})
	if leaked != 0 {
		t.Fatalf("%d epoch counters leaked in the tracker registry", leaked)
	}
	nw.pipe.mu.Lock()
	open := len(nw.pipe.epochs)
	nw.pipe.mu.Unlock()
	if open != 0 {
		t.Fatalf("%d epochs still registered in the pipeline after drain", open)
	}
}
