package scenario

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestCompileEventCounts pins the compilation law: every phase emits
// exactly Rounds events, of the kinds its semantics prescribe.
func TestCompileEventCounts(t *testing.T) {
	sc := Schedule{Name: "mix", Phases: []Phase{
		Quiet(3),
		Attrition(5),
		Growth(4, 2),
		Churn(10, 3, 2), // every 3rd event inserts: 3 inserts, 7 deletes
		Disaster(2, 7),
	}}
	events, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != sc.Events() || sc.Events() != 3+5+4+10+2 {
		t.Fatalf("compiled %d events, Events()=%d", len(events), sc.Events())
	}
	counts := map[OpKind]int{}
	perPhase := map[int]int{}
	for _, ev := range events {
		counts[ev.Kind]++
		perPhase[ev.Phase]++
	}
	if counts[OpQuiet] != 3 || counts[OpDelete] != 5+7 || counts[OpInsert] != 4+3 || counts[OpBatchKill] != 2 {
		t.Fatalf("kind counts %v", counts)
	}
	for pi, p := range sc.Phases {
		if perPhase[pi] != p.Rounds {
			t.Fatalf("phase %d emitted %d events, want %d", pi, perPhase[pi], p.Rounds)
		}
	}
	for _, ev := range events {
		if ev.Kind == OpBatchKill && ev.Size != 7 {
			t.Fatalf("disaster event lost its wave size: %+v", ev)
		}
		if ev.Kind == OpInsert && ev.Size < 2 {
			t.Fatalf("insert event lost its attach degree: %+v", ev)
		}
	}
}

// TestCompileDeterministic: the stream is a pure function of the schedule.
func TestCompileDeterministic(t *testing.T) {
	sc := PresetFlashCrowd(256)
	a, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sc.Compile()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two compilations of the same schedule differ")
	}
}

func TestCompileValidation(t *testing.T) {
	bad := []Schedule{
		{},                                       // no phases
		{Phases: []Phase{Quiet(0)}},              // zero rounds
		{Phases: []Phase{Growth(3, 0)}},          // isolated newcomers
		{Phases: []Phase{Churn(3, 1, 2)}},        // insertEvery < 2
		{Phases: []Phase{Churn(3, 2, 0)}},        // churn without attach
		{Phases: []Phase{Disaster(1, 0)}},        // empty wave
		{Phases: []Phase{{Kind: 99, Rounds: 1}}}, // unknown kind
	}
	for i, sc := range bad {
		if _, err := sc.Compile(); err == nil {
			t.Errorf("schedule %d should fail validation", i)
		}
	}
	for _, name := range PresetNames() {
		sc, err := Preset(name, 200)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Compile(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
	}
	if _, err := Preset("no-such", 10); err == nil {
		t.Error("unknown preset should error")
	}
}

func baseConfig(n int, sc Schedule) Config {
	return Config{
		NewGraph:          func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(n, 3, r) },
		Schedule:          sc,
		Healer:            core.DASH{},
		Trials:            4,
		Seed:              42,
		MeasureEvery:      10,
		SampleThreshold:   64, // force sampling on one of the test sizes
		SampleSources:     6,
		TrackConnectivity: true,
	}
}

// TestRunDeterministicAcrossWorkers is the scenario analogue of the
// experiment engine's determinism contract: the full Result — every
// trial, every checkpoint — must be bit-identical at any worker count.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	for _, n := range []int{48, 96} {
		sc := PresetFlashCrowd(n)
		ref, err := func() (Result, error) {
			cfg := baseConfig(n, sc)
			cfg.Workers = 1
			return Run(cfg)
		}()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			cfg := baseConfig(n, sc)
			cfg.Workers = workers
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("n=%d: result at %d workers differs from serial", n, workers)
			}
		}
	}
}

// TestRunEventAccounting: every compiled event executes exactly once and
// the per-kind tallies add up.
func TestRunEventAccounting(t *testing.T) {
	sc := Schedule{Name: "acct", Phases: []Phase{
		Quiet(2), Growth(6, 2), Churn(9, 3, 2), Disaster(2, 3), Attrition(4),
	}}
	cfg := baseConfig(64, sc)
	cfg.Trials = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.Trials {
		if tr.Events != sc.Events() {
			t.Fatalf("trial %d executed %d events, want %d", i, tr.Events, sc.Events())
		}
		if tr.Exhausted {
			t.Fatalf("trial %d exhausted on a uniform policy with nodes to spare", i)
		}
		// growth 6 inserts + churn 3 inserts; churn 6 deletes + attrition 4.
		if tr.Inserts != 9 || tr.Deletes != 10 || tr.BatchKills != 2 {
			t.Fatalf("trial %d tallies: +%d nodes, -%d deletes, %d batches",
				i, tr.Inserts, tr.Deletes, tr.BatchKills)
		}
		if tr.Killed < 2 || tr.Killed > 6 {
			t.Fatalf("trial %d batch-killed %d nodes, want 2..6", i, tr.Killed)
		}
		wantAlive := tr.N + tr.Inserts - tr.Deletes - tr.Killed
		if tr.FinalAlive != wantAlive {
			t.Fatalf("trial %d final alive %d, want %d", i, tr.FinalAlive, wantAlive)
		}
		if !tr.AlwaysConnected {
			t.Fatalf("trial %d: DASH on BA should stay connected (first break at %d)",
				i, tr.FirstBreak)
		}
		if len(tr.Checkpoints) == 0 {
			t.Fatalf("trial %d has no checkpoints", i)
		}
		last := tr.Checkpoints[len(tr.Checkpoints)-1]
		if last.Event != tr.Events || last.Alive != tr.FinalAlive {
			t.Fatalf("trial %d final checkpoint %+v inconsistent", i, last)
		}
	}
}

// TestRunPeakDeltaMatchesFullScan cross-checks the incremental peak-δ
// accounting against a per-event MaxDelta sweep on small runs.
func TestRunPeakDeltaMatchesFullScan(t *testing.T) {
	sc := Schedule{Name: "peak", Phases: []Phase{
		Churn(20, 4, 2), Disaster(2, 4), Attrition(10),
	}}
	events, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(56, sc)
	master := rng.New(cfg.Seed)
	tr := master.Split()
	run := newTrialRun(cfg, events, Uniform{}, 0, tr)
	peak := 0
	for {
		more := run.step()
		if d := run.s.MaxDelta(); d > peak {
			peak = d
		}
		if run.res.PeakDelta != peak {
			t.Fatalf("after event %d: incremental peak %d, full scan %d",
				run.res.Events, run.res.PeakDelta, peak)
		}
		if !more {
			break
		}
	}
}

// TestRunLiveness is the liveness property: the healer must never be
// invoked on a dead node, whatever the victim policy does — NoTarget and
// invalid victims both end the deletion stream gracefully.
func TestRunLiveness(t *testing.T) {
	sc := Schedule{Name: "live", Phases: []Phase{Attrition(10), Growth(3, 2), Attrition(5)}}

	t.Run("exhausted-attack", func(t *testing.T) {
		cfg := baseConfig(48, sc)
		cfg.Trials = 2
		cfg.NewVictim = func() VictimPolicy {
			return FromAttack{&attack.Limited{Inner: attack.Random{}, Budget: 4}}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range res.Trials {
			if !tr.Exhausted {
				t.Fatalf("trial %d should report exhaustion", i)
			}
			if tr.Deletes != 4 {
				t.Fatalf("trial %d performed %d deletes, budget was 4", i, tr.Deletes)
			}
			if tr.Inserts != 3 || tr.Events != sc.Events() {
				t.Fatalf("trial %d: inserts and quiet events must still run (%+v)", i, tr)
			}
		}
	})

	t.Run("dead-victim", func(t *testing.T) {
		// First delete normally (seeding a dead node), then hand that
		// dead node back to the runner: it must not reach the healer.
		cfg := baseConfig(48, sc)
		cfg.Trials = 1
		removed := make(map[int]bool)
		cfg.Observe = func(_ int, s *core.State) {
			s.SetHooks(&core.Hooks{OnRemove: func(x int) {
				if removed[x] {
					t.Errorf("node %d removed twice: healer ran on a dead node", x)
				}
				removed[x] = true
			}})
		}
		cfg.NewVictim = func() VictimPolicy { return &twiceVictim{v: 7} }
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Trials[0]
		if !tr.Exhausted || tr.Deletes != 1 {
			t.Fatalf("dead victim should exhaust after 1 delete, got %+v", tr)
		}
	})
}

// TestExactCheckpointReuse pins the reuse of an unchanged exact
// checkpoint: once the victim budget runs out, deletions stop mutating
// the graph, and the cadence checkpoints that follow reuse the last
// sweep instead of re-measuring. Every checkpoint must equal a fresh
// sweep of the graph it was taken on, before and after the joins in the
// middle phase change it again.
func TestExactCheckpointReuse(t *testing.T) {
	sc := Schedule{Name: "reuse", Phases: []Phase{Attrition(24), Growth(6, 2), Attrition(20)}}
	cfg := baseConfig(256, sc)
	cfg.MeasureEvery = 4
	cfg.SampleThreshold = math.MaxInt
	events, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	run := newTrialRun(cfg, events, FromAttack{&attack.Limited{Inner: attack.Random{}, Budget: 7}}, 0, rng.New(5).Split())
	if run.auto.Sampled() {
		t.Fatal("threshold above n must measure exactly")
	}
	versions := make(map[int]bool)
	for more := true; more; {
		before := len(run.res.Checkpoints)
		more = run.step()
		if len(run.res.Checkpoints) == before {
			continue
		}
		versions[graphVersion(run.s.G)] = true
		cp := run.res.Checkpoints[before]
		st, d := run.auto.Checkpoint(run.s.G, run.measureR)
		if cp.Stretch != st || cp.Diameter != d {
			t.Fatalf("checkpoint at event %d: got %+v %+v, a fresh sweep gives %+v %+v",
				cp.Event, cp.Stretch, cp.Diameter, st, d)
		}
	}
	if !run.res.Exhausted || run.res.Deletes != 7 {
		t.Fatalf("the budget should run out after 7 deletes: %+v", run.res)
	}
	if len(versions) >= len(run.res.Checkpoints) {
		t.Fatalf("%d checkpoints on %d graphs: no checkpoint could be reused", len(run.res.Checkpoints), len(versions))
	}
}

// twiceVictim returns the same node forever: the second pick is dead.
type twiceVictim struct{ v int }

func (d *twiceVictim) Name() string                              { return "Twice" }
func (d *twiceVictim) Pick(*core.State, *AliveSet, *rng.RNG) int { return d.v }

// noHeal adds no edges, so deletions genuinely fragment the graph —
// exactly what the connectivity tracker must detect.
type noHeal struct{}

func (noHeal) Name() string { return "NoHeal" }
func (noHeal) Heal(*core.State, core.Deletion) core.HealResult {
	return core.HealResult{}
}

// TestConnTrackerMatchesFullRecompute drives randomized mixed schedules
// with a healer that never repairs anything and checks the incremental
// tracker agrees with a full connectivity recompute at every event, up
// to and including the first disconnection (the tracker latches there,
// like Trial.AlwaysConnected).
func TestConnTrackerMatchesFullRecompute(t *testing.T) {
	sc := Schedule{Name: "frag", Phases: []Phase{
		Churn(30, 5, 1), Disaster(2, 5), Attrition(20),
	}}
	events, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := baseConfig(40, sc)
		cfg.Seed = seed
		cfg.Healer = noHeal{}
		master := rng.New(seed)
		run := newTrialRun(cfg, events, Uniform{}, 0, master.Split())
		broken := false
		for {
			more := run.step()
			full := run.s.G.Connected()
			if !broken && run.conn.StillConnected() != full {
				t.Fatalf("seed %d event %d: tracker says %v, full recompute %v",
					seed, run.res.Events, run.conn.StillConnected(), full)
			}
			if !full {
				broken = true // tracker latches; full state may re-merge
			}
			if !broken && run.conn.FirstBreak() != -1 {
				t.Fatalf("seed %d: FirstBreak set while still connected", seed)
			}
			if !more {
				break
			}
		}
		if !broken {
			t.Logf("seed %d: graph never disconnected (tracker untested for breakage)", seed)
		}
	}
}

// TestConnTrackerSeesDisconnect guarantees the fragmentation case above
// actually occurs for at least one seed, so the tracker's negative path
// is exercised deterministically.
func TestConnTrackerSeesDisconnect(t *testing.T) {
	// A line graph loses connectivity on any interior deletion with no
	// healing.
	g := gen.Line(10)
	s := core.NewState(g, rng.New(1))
	conn := NewConnTracker(s.G, 1)
	nbrs := s.G.AppendNeighbors(nil, 5)
	s.DeleteAndHeal(5, noHeal{})
	conn.AfterDelete(s.G, nbrs, 0)
	if conn.StillConnected() {
		t.Fatal("tracker missed an obvious partition")
	}
	if conn.FirstBreak() != 0 {
		t.Fatalf("FirstBreak %d, want 0", conn.FirstBreak())
	}
}

// TestBatchBoundaryNonEmpty is the regression test for a bug where the
// batch boundary reused the ball walk's visit marks: every boundary node
// looked like a batch member, AfterBatch received zero witnesses, and
// disaster waves were never connectivity-checked at all. Every wave
// must hand the tracker at least one alive witness outside the ball.
func TestBatchBoundaryNonEmpty(t *testing.T) {
	sc := Schedule{Name: "b", Phases: []Phase{Disaster(3, 4)}}
	events, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(40, sc)
	run := newTrialRun(cfg, events, Uniform{}, 0, rng.New(3).Split())
	for wave := 0; wave < 3; wave++ {
		if kind := events[run.res.Events].Kind; kind != OpBatchKill {
			t.Fatalf("event %d is %v, want a batch kill", run.res.Events, kind)
		}
		killed := run.res.Killed
		run.step()
		if got := run.res.Killed - killed; got != 4 {
			t.Fatalf("wave %d killed %d nodes of a connected 40-node graph, want 4", wave, got)
		}
		if !run.conn.StillConnected() {
			t.Fatalf("wave %d: DASH-healed batch reported as a partition", wave)
		}
		// The check seeds its search with the witnesses still alive
		// after the kill, so none of them is a ball member.
		if len(run.conn.region.Nodes) == 0 {
			t.Fatalf("wave %d handed the tracker no alive witness (raw lists %v)", wave, run.nbrScratch)
		}
	}
}

// TestConnTrackerSeesBatchDisconnect: a batch kill that severs the
// graph must be caught through the AfterBatch path.
func TestConnTrackerSeesBatchDisconnect(t *testing.T) {
	g := gen.Line(12)
	conn := NewConnTracker(g, 1)
	// Kill the middle of the line without healing: {5,6} split it.
	boundary := []int{4, 7}
	g.RemoveNode(5)
	g.RemoveNode(6)
	conn.AfterBatch(g, boundary, 0)
	if conn.StillConnected() {
		t.Fatal("tracker missed a batch partition")
	}
	if conn.FirstBreak() != 0 {
		t.Fatalf("FirstBreak %d, want 0", conn.FirstBreak())
	}
}

// TestConnTrackerDeferred exercises the cadence > 1 mode: witnesses
// accumulate across events and one flush settles the whole window,
// including witnesses that themselves died inside it.
func TestConnTrackerDeferred(t *testing.T) {
	t.Run("detects-break", func(t *testing.T) {
		s := core.NewState(gen.Line(12), rng.New(2))
		conn := NewConnTracker(s.G, 8)
		for i, v := range []int{6, 5} { // 5 is a witness of 6's deletion, then dies too
			nbrs := s.G.AppendNeighbors(nil, v)
			s.DeleteAndHeal(v, noHeal{})
			conn.AfterDelete(s.G, nbrs, i)
			if !conn.StillConnected() {
				t.Fatal("cadence-8 tracker checked before its window closed")
			}
		}
		conn.Flush(s.G, 2)
		if conn.StillConnected() {
			t.Fatal("flush missed the partition")
		}
		if conn.FirstBreak() != 2 {
			t.Fatalf("FirstBreak %d, want the flush event 2", conn.FirstBreak())
		}
	})
	t.Run("agrees-when-healed", func(t *testing.T) {
		// Same mixed schedule as the per-event property test, healed by
		// DASH: the deferred verdict must agree with per-event tracking
		// (always connected) at a fraction of the BFS work.
		sc := Schedule{Name: "d", Phases: []Phase{Churn(24, 4, 2), Attrition(12)}}
		for _, every := range []int{1, 6, 1000} {
			cfg := baseConfig(48, sc)
			cfg.Trials = 2
			cfg.ConnectivityEvery = every
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, tr := range res.Trials {
				if !tr.AlwaysConnected {
					t.Fatalf("cadence %d trial %d: spurious disconnection at %d",
						every, i, tr.FirstBreak)
				}
			}
		}
	})
}

// TestAliveSet pins the swap-delete set's invariants.
func TestAliveSet(t *testing.T) {
	g := gen.Ring(8)
	a := NewAliveSet(g)
	if a.Len() != 8 || !a.Contains(3) {
		t.Fatalf("bad init: len %d", a.Len())
	}
	a.Remove(3)
	a.Remove(3) // idempotent
	if a.Len() != 7 || a.Contains(3) {
		t.Fatalf("remove failed: len %d", a.Len())
	}
	a.Add(9) // beyond original range: pos must grow
	if !a.Contains(9) || a.Len() != 8 {
		t.Fatalf("grow-add failed")
	}
	r := rng.New(1)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := a.Random(r)
		if !a.Contains(v) {
			t.Fatalf("Random returned non-member %d", v)
		}
		seen[v] = true
	}
	if len(seen) != a.Len() {
		t.Fatalf("uniform sampling over 200 draws hit %d of %d members", len(seen), a.Len())
	}
}

// TestSampledScenarioMetrics: a scenario over the sample threshold must
// flag its metrics as sampled and still produce sane stretch values.
func TestSampledScenarioMetrics(t *testing.T) {
	sc := Schedule{Name: "s", Phases: []Phase{Attrition(15)}}
	cfg := baseConfig(96, sc) // threshold 64 → sampled
	cfg.Trials = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trials[0]
	if !tr.SampledMetrics {
		t.Fatal("n=96 over threshold 64 should sample")
	}
	if tr.MaxStretch < 1 || math.IsNaN(tr.MaxStretch) {
		t.Fatalf("bad stretch %v", tr.MaxStretch)
	}
	for _, cp := range tr.Checkpoints {
		if !cp.Sampled {
			t.Fatalf("checkpoint %+v not flagged sampled", cp)
		}
		if cp.DiameterLB < 1 {
			t.Fatalf("checkpoint diameter %d", cp.DiameterLB)
		}
	}
}
