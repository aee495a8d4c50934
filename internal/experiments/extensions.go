package experiments

import (
	"math"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file holds the extension experiments beyond the paper's own
// figures: the topology-independence claim, the open-problem ablation on
// ID propagation, the churn workload, and the cut-vertex stress test.

// Topologies demonstrates §1's claim that DASH works "irrespective of the
// topology of the initial network": the same attack on six different
// families, reporting peak δ against the 2·log₂ n guarantee.
func Topologies(n, trials int, seed uint64) *stats.Table {
	if n < 16 {
		n = 16
	}
	cube := log2floor(n)
	families := []struct {
		name string
		n    int // the family's real node count
		mk   func(r *rng.RNG) *graph.Graph
	}{
		{"BA", n, func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(n, BAEdges, r) }},
		{"tree", n, func(r *rng.RNG) *graph.Graph { return gen.RandomRecursiveTree(n, r) }},
		{"ring", n, func(*rng.RNG) *graph.Graph { return gen.Ring(n) }},
		{"small-world", n, func(r *rng.RNG) *graph.Graph { return gen.WattsStrogatz(n, 4, 0.2, r) }},
		{"4-regular", evenize(n), func(r *rng.RNG) *graph.Graph { return gen.RandomRegular(evenize(n), 4, r) }},
		{"hypercube", 1 << cube, func(*rng.RNG) *graph.Graph { return gen.Hypercube(cube) }},
	}
	t := &stats.Table{
		Title:  "Topology independence: DASH peak δ under NeighborOfMax, across initial topologies",
		Header: []string{"topology", "n", "peak δ", "2*log2(n)", "always connected"},
	}
	for fi, f := range families {
		cfg := sim.Config{
			NewGraph:          f.mk,
			NewAttack:         func() attack.Strategy { return attack.NeighborOfMax{} },
			Healer:            core.DASH{},
			Trials:            trials,
			Seed:              seed + uint64(fi)*101,
			Rounds:            f.n,
			Workers:           Workers,
			TrackConnectivity: true,
		}
		res := sim.Run(cfg)
		connected := true
		actualN := res.Trials[0].N
		for _, tr := range res.Trials {
			connected = connected && tr.AlwaysConnected
		}
		t.AddRow(f.name, actualN, res.PeakMaxDelta.Mean,
			2*math.Log2(float64(actualN)), connected)
	}
	return t
}

func evenize(n int) int {
	if n%2 == 1 {
		return n + 1
	}
	return n
}

func log2floor(n int) int {
	d := 0
	for (1 << (d + 1)) <= n {
		d++
	}
	return d
}

// OracleAblation answers the paper's open problem ("can we remove the
// need for propagating IDs?") with numbers: OracleDASH heals identically
// to DASH but replaces the MINID flood with a component oracle. The
// difference column is exactly the price DASH pays, in messages, for
// staying local.
func OracleAblation(sizes []int, trials int, seed uint64) *stats.Table {
	t := &stats.Table{
		Title: "Open problem ablation: component IDs vs oracle (NeighborOfMax attack)",
		Header: []string{"n", "DASH peak δ", "Oracle peak δ",
			"DASH max msgs", "Oracle max msgs"},
	}
	for ni, n := range sizes {
		run := func(h core.Healer) sim.Result {
			return sim.Run(sim.Config{
				NewGraph:  BAGraph(n),
				NewAttack: func() attack.Strategy { return attack.NeighborOfMax{} },
				Healer:    h,
				Trials:    trials,
				Seed:      seed + uint64(ni)*17,
				Rounds:    n,
				Workers:   Workers,
			})
		}
		d := run(core.DASH{})
		o := run(core.OracleDASH{})
		t.AddRow(n, d.PeakMaxDelta.Mean, o.PeakMaxDelta.Mean,
			d.MaxMessages.Mean, o.MaxMessages.Mean)
	}
	return t
}

// Churn interleaves joins with adversarial deletions (one join every
// 0, 4, or 2 steps) and verifies DASH's guarantees hold on a network
// that never stops changing.
func Churn(n, steps, trials int, seed uint64) *stats.Table {
	t := &stats.Table{
		Title:  "Churn: joins interleaved with NeighborOfMax deletions, DASH healing",
		Header: []string{"join every", "steps", "peak δ", "always connected", "final alive"},
	}
	for _, je := range []int{0, 4, 2} {
		peaks := make([]float64, trials)
		finals := make([]float64, trials)
		conns := make([]bool, trials)
		master := rng.New(seed + uint64(je))
		par.ForEachTrial(trials, master, Workers, func(trial int, tr *rng.RNG) {
			s := core.NewState(gen.BarabasiAlbert(n, BAEdges, tr.Split()), tr.Split())
			attackR := tr.Split()
			joinR := tr.Split()
			att := attack.NeighborOfMax{}
			peak := 0
			connected := true
			for step := 1; step <= steps; step++ {
				alive := s.G.AliveNodes()
				if len(alive) == 0 {
					break
				}
				if je > 0 && step%je == 0 {
					k := min(3, len(alive))
					attach := make([]int, 0, k)
					for _, i := range joinR.Perm(len(alive))[:k] {
						attach = append(attach, alive[i])
					}
					s.Join(attach, joinR)
					peak = s.PeakDelta(peak, attach...)
				} else {
					v := att.Next(s, attackR)
					if v == attack.NoTarget {
						break
					}
					peak = s.PeakDeltaEdges(peak, s.DeleteAndHeal(v, core.DASH{}).Added)
				}
				if !s.G.Connected() {
					connected = false
				}
			}
			peaks[trial] = float64(peak)
			finals[trial] = float64(s.G.NumAlive())
			conns[trial] = connected
		})
		connected := true
		for _, c := range conns {
			connected = connected && c
		}
		t.AddRow(je, steps, stats.Mean(peaks), connected, stats.Mean(finals))
	}
	return t
}

// Scenarios runs every preset workload of internal/scenario (disaster,
// flash-crowd, sustained-churn) against a healer sweep and tabulates the
// outcome: the mixed insert/delete/churn extension of the paper's
// delete-only evaluation. Above the sampling threshold the stretch
// column is a k-source estimate (the table marks it).
func Scenarios(n, trials int, seed uint64) *stats.Table {
	healers := []core.Healer{core.DASH{}, core.SDASH{}}
	t := &stats.Table{
		Title: "Scenario presets: mixed insert/delete/churn workloads (uniform victims)",
		Header: []string{"preset", "healer", "events", "final alive", "peak δ",
			"max stretch", "always connected", "sampled"},
	}
	for pi, name := range scenario.PresetNames() {
		sc, err := scenario.Preset(name, n)
		if err != nil {
			panic(err) // preset names come from the registry itself
		}
		for hi, h := range healers {
			cfg := scenario.Config{
				NewGraph:          BAGraph(n),
				Schedule:          sc,
				Healer:            h,
				Trials:            trials,
				Seed:              seed + uint64(pi)*1009 + uint64(hi)*17,
				Workers:           Workers,
				MeasureEvery:      max(1, sc.Events()/8),
				TrackConnectivity: true,
			}
			res, err := scenario.Run(cfg)
			if err != nil {
				panic(err)
			}
			connected := true
			sampled := false
			for _, tr := range res.Trials {
				connected = connected && tr.AlwaysConnected
				sampled = sampled || tr.SampledMetrics
			}
			t.AddRow(name, h.Name(), res.Events, res.FinalAlive.Mean,
				res.PeakDelta.Mean, res.MaxStretch.Mean, connected, sampled)
		}
	}
	return t
}

// Latency regenerates the Lemma 9 claim: the amortized MINID-propagation
// latency (wave depth per round) over a delete-everything run is
// O(log n) w.h.p., even though a single wave can be much deeper.
func Latency(sizes []int, trials int, seed uint64) *stats.Table {
	t := &stats.Table{
		Title:  "Lemma 9: amortized ID-propagation latency (wave depth per round), DASH",
		Header: []string{"n", "amortized depth", "worst wave", "log2(n)"},
	}
	for ni, n := range sizes {
		// Observe hands over each trial's state before its first
		// round; the flood depths are read once every trial is done.
		states := make([]*core.State, max(trials, 1))
		_, err := scenario.Run(scenario.Config{
			NewGraph: BAGraph(n),
			Schedule: scenario.Schedule{Name: "attrition", Phases: []scenario.Phase{scenario.Attrition(n)}},
			Healer:   core.DASH{},
			NewVictim: func() scenario.VictimPolicy {
				return scenario.FromAttack{S: attack.NeighborOfMax{}}
			},
			Trials:       trials,
			Seed:         seed + uint64(ni)*7,
			Workers:      Workers,
			MeasureEvery: -1,
			Observe:      func(i int, s *core.State) { states[i] = s },
		})
		if err != nil {
			panic(err) // the schedule is one valid Attrition phase
		}
		amortized := make([]float64, len(states))
		worst := 0.0
		for i, s := range states {
			amortized[i] = s.AmortizedFloodDepth()
			worst = max(worst, float64(s.MaxFloodDepth()))
		}
		t.AddRow(n, stats.Mean(amortized), worst, math.Log2(float64(n)))
	}
	return t
}

// CutVertexStress compares healers under the articulation-point
// adversary, where every deletion is a guaranteed partition of the
// unhealed graph.
func CutVertexStress(sizes []int, trials int, seed uint64) *stats.Table {
	healers := []core.Healer{core.DASH{}, core.SDASH{}}
	t := &stats.Table{
		Title:  "CutVertex adversary: articulation points first (random trees)",
		Header: []string{"n"},
	}
	for _, h := range healers {
		t.Header = append(t.Header, h.Name()+" peak δ")
	}
	t.Header = append(t.Header, "2*log2(n)")
	for ni, n := range sizes {
		row := []any{n}
		for hi, h := range healers {
			n := n
			res := sim.Run(sim.Config{
				NewGraph:          func(r *rng.RNG) *graph.Graph { return gen.RandomRecursiveTree(n, r) },
				NewAttack:         func() attack.Strategy { return attack.CutVertex{} },
				Healer:            h,
				Trials:            trials,
				Seed:              seed + uint64(ni)*13 + uint64(hi),
				Rounds:            n,
				Workers:           Workers,
				TrackConnectivity: true,
			})
			cell := res.PeakMaxDelta.Mean
			for _, trial := range res.Trials {
				if !trial.AlwaysConnected {
					cell = math.Inf(1) // disconnection dwarfs any δ reading
				}
			}
			row = append(row, cell)
		}
		row = append(row, 2*math.Log2(float64(n)))
		t.AddRow(row...)
	}
	return t
}
