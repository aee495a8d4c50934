package sim_test

import (
	"testing"

	"repro"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/sim"
)

// scanTrial is the reference trial loop: sim's own §4.1 loop as it was
// before peak δ was folded from healed-edge endpoints and the rounds
// moved onto scenario's engine. After every round it takes the O(n)
// MaxDelta scan and the O(n+m) Connected check, and it measures
// stretch with metrics.Stretch.
func scanTrial(cfg sim.Config, tr *rng.RNG) sim.Trial {
	graphR := tr.Split()
	stateR := tr.Split()
	attackR := tr.Split()

	g := cfg.NewGraph(graphR)
	n := g.NumAlive()
	s := core.NewState(g, stateR)
	att := cfg.NewAttack()
	healer := core.InstanceFor(cfg.Healer)

	var stretch *metrics.Stretch
	if cfg.StretchEvery > 0 {
		stretch = metrics.NewStretch(s.G)
	}

	limit := cfg.Rounds
	trial := sim.Trial{N: n, AlwaysConnected: true, MaxStretch: 1, MeanStretch: 1}
	measure := func() {
		if stretch == nil || s.G.NumAlive() < 2 {
			return
		}
		r := stretch.Measure(s.G)
		if r.Max > trial.MaxStretch {
			trial.MaxStretch = r.Max
			trial.MeanStretch = r.Mean
		}
	}
	for trial.Rounds < limit && s.G.NumAlive() > 0 {
		v := att.Next(s, attackR)
		if v == attack.NoTarget {
			break
		}
		hr := s.DeleteAndHeal(v, healer)
		trial.Rounds++
		trial.EdgesAdded += len(hr.Added)
		if hr.Surrogated {
			trial.Surrogations++
		}
		if d := s.MaxDelta(); d > trial.PeakMaxDelta {
			trial.PeakMaxDelta = d
		}
		if cfg.TrackConnectivity && !s.G.Connected() {
			trial.AlwaysConnected = false
		}
		if cfg.StretchEvery > 0 && trial.Rounds%cfg.StretchEvery == 0 {
			measure()
		}
	}
	measure()
	trial.FinalMaxDelta = s.MaxDelta()
	trial.MaxIDChanges = s.MaxIDChanges()
	trial.MaxMessages = s.MaxMessages()
	return trial
}

// TestRunMatchesPerRoundScan runs every registered healer against the
// degree-driven adversaries through sim.Run and through the reference
// loop, and demands identical Trial structs: PeakMaxDelta folded from
// healed-edge endpoints must equal the per-round scan's, scenario's
// incremental ConnTracker must agree with the per-round Connected check,
// its exact-mode stretch checkpoints with metrics.Stretch, and
// everything else must not move.
func TestRunMatchesPerRoundScan(t *testing.T) {
	attacks := []func() attack.Strategy{
		func() attack.Strategy { return attack.NeighborOfMax{} },
		func() attack.Strategy { return attack.MaxDegree{} },
		func() attack.Strategy { return attack.CutVertex{} },
	}
	for _, h := range repro.AllHealers() {
		for _, newAttack := range attacks {
			cfg := sim.Config{
				NewGraph:          func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(96, 3, r) },
				NewAttack:         newAttack,
				Healer:            h,
				Trials:            4,
				Seed:              7,
				StretchEvery:      24,
				Rounds:            96,
				TrackConnectivity: true,
				Workers:           1,
			}
			name := h.Name() + "/" + newAttack().Name()
			got := sim.Run(cfg).Trials
			want := make([]sim.Trial, cfg.Trials)
			par.ForEachTrial(cfg.Trials, rng.New(cfg.Seed), 1, func(i int, tr *rng.RNG) {
				want[i] = scanTrial(cfg, tr)
			})
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s trial %d:\nrun:  %+v\nscan: %+v", name, i, got[i], want[i])
				}
			}
		}
	}
}
