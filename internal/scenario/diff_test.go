package scenario

// Differential tests: randomized scenario schedules — now including
// Disaster phases, the footnote-1 batch kills — replayed through the
// sequential engine and the distributed engine via ReplayDifferential,
// which asserts exact G/G′/label/δ equality and exact flood accounting
// at every window flush (window 1: after every mutating event). This
// extends internal/dist's equivalence tests (fixed attacks, delete-only)
// to the full insert/delete/batch-kill interleavings the scenario engine
// generates.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

const diffTimeout = 20 * time.Second

// randomSchedule draws a small mixed schedule. Every schedule contains
// at least one Disaster phase, so each of the eight seeded differential
// runs exercises the distributed batch-kill epoch.
func randomSchedule(r *rng.RNG) Schedule {
	nPhases := 3 + r.Intn(3)
	phases := make([]Phase, 0, nPhases+1)
	for i := 0; i < nPhases; i++ {
		switch r.Intn(5) {
		case 0:
			phases = append(phases, Quiet(1+r.Intn(3)))
		case 1:
			phases = append(phases, Attrition(3+r.Intn(8)))
		case 2:
			phases = append(phases, Growth(2+r.Intn(5), 1+r.Intn(3)))
		case 3:
			phases = append(phases, Disaster(1+r.Intn(2), 2+r.Intn(6)))
		default:
			phases = append(phases, Churn(4+r.Intn(8), 2+r.Intn(3), 1+r.Intn(3)))
		}
	}
	hasDisaster := false
	for _, p := range phases {
		hasDisaster = hasDisaster || p.Kind == PhaseDisaster
	}
	if !hasDisaster {
		at := r.Intn(len(phases) + 1)
		phases = append(phases[:at], append([]Phase{Disaster(1+r.Intn(2), 2+r.Intn(6))}, phases[at:]...)...)
	}
	return Schedule{Name: "randomized", Phases: phases}
}

func TestDifferentialCoreVsDist(t *testing.T) {
	healers := []core.Healer{core.DASH{}, core.SDASH{}}
	for _, healer := range healers {
		for seed := uint64(1); seed <= 4; seed++ {
			healer, seed := healer, seed
			t.Run(healer.Name()+"/"+string(rune('0'+seed)), func(t *testing.T) {
				t.Parallel()
				sc := randomSchedule(rng.New(seed * 7919))
				t.Logf("schedule (%d events): %+v", sc.Events(), sc.Phases)
				rep, err := ReplayDifferential(Config{
					NewGraph:     func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(48, 3, r) },
					Schedule:     sc,
					Healer:       healer,
					Seed:         seed,
					MeasureEvery: -1, // equivalence only; no metrics sweeps
				}, 1, diffTimeout)
				if err != nil {
					t.Fatal(err)
				}
				if rep.BatchKills == 0 {
					t.Fatalf("schedule replayed no batch kills: %+v", rep)
				}
				t.Logf("replayed %d events: %d kills, %d joins, %d batch epochs (%d killed), %d rounds",
					rep.Events, rep.Kills, rep.Joins, rep.BatchKills, rep.Killed, rep.Rounds)
			})
		}
	}
}

// TestDifferentialPipelinedSmall replays randomized mixed schedules at
// window DefaultDiffWindow: disjoint heal epochs genuinely overlap
// between flushes, and the same bit-exact equivalence window 1 demands
// after every event is asserted at every flush. Small-n complement to
// the 10k gate below.
func TestDifferentialPipelinedSmall(t *testing.T) {
	for _, healer := range []core.Healer{core.DASH{}, core.SDASH{}} {
		for seed := uint64(1); seed <= 3; seed++ {
			healer, seed := healer, seed
			t.Run(healer.Name()+"/"+string(rune('0'+seed)), func(t *testing.T) {
				t.Parallel()
				sc := randomSchedule(rng.New(seed*104729 + 17))
				rep, err := ReplayDifferential(Config{
					NewGraph:     func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(48, 3, r) },
					Schedule:     sc,
					Healer:       healer,
					Seed:         seed,
					MeasureEvery: -1,
				}, DefaultDiffWindow, diffTimeout)
				if err != nil {
					t.Fatal(err)
				}
				if rep.BatchKills == 0 {
					t.Fatalf("schedule replayed no batch kills: %+v", rep)
				}
				t.Logf("replayed %d events pipelined: %d kills, %d joins, %d batch epochs, %d rounds",
					rep.Events, rep.Kills, rep.Joins, rep.BatchKills, rep.Rounds)
			})
		}
	}
}

// TestDifferentialRejectsForeignHealer pins the healer mapping: a healer
// with no distributed counterpart must fail fast, not diverge.
func TestDifferentialRejectsForeignHealer(t *testing.T) {
	_, err := ReplayDifferential(Config{
		NewGraph: func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(16, 3, r) },
		Schedule: Schedule{Name: "x", Phases: []Phase{Attrition(1)}},
		Healer:   core.SDASHFull{},
		Seed:     1,
	}, 1, diffTimeout)
	if err == nil {
		t.Fatal("SDASHFull has no distributed implementation and must be rejected")
	}
}

// TestDifferentialCatchesLabelDrift pins that the flush check really
// compares labels, and how often it runs: OracleDASH heals exactly as
// DASH but floods no labels, so replaying it against the distributed
// DASH rule must fail with an error naming a label — the first field
// of the oracle's order that differs — at the first check. At window 1
// that is the first kill's event; at DefaultDiffWindow it is the first
// full window, well before the final flush.
func TestDifferentialCatchesLabelDrift(t *testing.T) {
	for _, tc := range []struct {
		window int
		want   string
	}{
		{1, "event 1 (flush of 1 in-flight epochs)"},
		{DefaultDiffWindow, fmt.Sprintf("event %d (flush of %d in-flight epochs)", DefaultDiffWindow, DefaultDiffWindow)},
	} {
		_, err := replayDifferential(Config{
			NewGraph:     func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(32, 3, r) },
			Schedule:     Schedule{Name: "x", Phases: []Phase{Attrition(3 * DefaultDiffWindow)}},
			Healer:       core.OracleDASH{},
			Seed:         1,
			MeasureEvery: -1,
		}, dist.HealDASH, tc.window, diffTimeout)
		if err == nil || !strings.Contains(err.Error(), "label") || !strings.HasPrefix(err.Error(), tc.want) {
			t.Fatalf("window %d: replay = %v, want a label divergence at %q", tc.window, err, tc.want)
		}
	}
}

// TestDisasterDifferential10k is the CI dist-disaster-smoke gate: a
// disaster-heavy schedule at n = 10k replayed through both engines at
// window 1, so equality is checked after every event. Eight correlated waves of ~n/64 nodes die
// as batch epochs, followed by churn and an attrition tail. Skipped
// under -short (the dedicated CI job runs it under -race with a
// 10-minute timeout, mirroring the scenario-smoke gate).
func TestDisasterDifferential10k(t *testing.T) {
	if testing.Short() {
		t.Skip("disaster differential smoke is not a -short test")
	}
	const n = 10_000
	sc := Schedule{Name: "disaster-10k", Phases: []Phase{
		Quiet(1),
		Disaster(8, n/64),
		Churn(12, 3, 3),
		Attrition(12),
	}}
	rep, err := ReplayDifferential(Config{
		NewGraph:     func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(n, 3, r) },
		Schedule:     sc,
		Healer:       core.DASH{},
		Seed:         1,
		MeasureEvery: -1,
	}, 1, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BatchKills != 8 || rep.Killed != 8*(n/64) {
		t.Fatalf("expected 8 full waves (%d nodes), got %+v", 8*(n/64), rep)
	}
	if rep.Kills == 0 || rep.Joins == 0 {
		t.Fatalf("schedule should mix kills and joins: %+v", rep)
	}
}

// TestPipelinedDifferential10k is the CI pipelined-differential gate: a
// sustained churn-and-disaster schedule at n = 10k replayed with
// mutations issued asynchronously in windows of DefaultDiffWindow, so
// up to a window's worth of heal epochs are in flight between each
// drain-and-check flush. The flush equivalence is the same bit-exact
// G/G′/label/δ and Lemma 9 flood check window 1 performs per event. Skipped under -short (the dedicated CI job
// runs it under -race with a 10-minute timeout).
func TestPipelinedDifferential10k(t *testing.T) {
	if testing.Short() {
		t.Skip("pipelined differential smoke is not a -short test")
	}
	const n = 10_000
	sc := Schedule{Name: "pipelined-10k", Phases: []Phase{
		Quiet(1),
		Churn(24, 3, 3),
		Disaster(4, n/128),
		Churn(24, 3, 3),
		Attrition(16),
	}}
	rep, err := ReplayDifferential(Config{
		NewGraph:     func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(n, 3, r) },
		Schedule:     sc,
		Healer:       core.DASH{},
		Seed:         2,
		MeasureEvery: -1,
	}, DefaultDiffWindow, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BatchKills != 4 || rep.Killed != 4*(n/128) {
		t.Fatalf("expected 4 full waves (%d nodes), got %+v", 4*(n/128), rep)
	}
	if rep.Kills == 0 || rep.Joins == 0 {
		t.Fatalf("schedule should mix kills and joins: %+v", rep)
	}
}
