// Package experiments defines the paper's evaluation artifacts as
// reproducible table generators. Each function regenerates the series of
// one figure or analytic claim (see DESIGN.md's experiment index E1-E9);
// cmd/figures prints them and the root benchmarks exercise them.
//
// Methodology (§4.1 of the paper): for each graph size and strategy pair,
// run over independent random Barabási–Albert instances, delete one node
// per round until the graph is empty (healing after every deletion), and
// average the per-run statistics.
package experiments

import (
	"math"

	"repro/internal/attack"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Workers is the per-cell trial parallelism every experiment in this
// package hands to its trial loop (sim.Config.Workers,
// scenario.Config.Workers, or par.ForEachTrial directly): 0 fans out
// across every CPU, 1 forces the serial path. Tables are bit-identical
// at any value — trial seeds are pre-split in order and results merged
// by trial index (see par.ForEachTrial) — so this is purely a
// wall-clock knob (cmd/figures
// exposes it as -workers). Set it before generating tables; it must not
// be written while experiments are running.
var Workers = 0

// BAEdges is the Barabási–Albert attachment parameter used by all
// power-law workloads (each new node brings this many edges).
const BAEdges = 3

// PaperTrials is the instance count the paper averages over.
const PaperTrials = 30

// DefaultSizes is the graph-size sweep used when the caller does not
// override it.
var DefaultSizes = []int{64, 128, 256, 512}

// ComparisonHealers are the four strategies of Figures 8-10, in the
// paper's naive-to-smart order.
func ComparisonHealers() []core.Healer {
	return []core.Healer{
		baseline.GraphHeal{},
		baseline.BinaryTreeHeal{},
		core.DASH{},
		core.SDASH{},
	}
}

// Cell is one (size, healer) experiment outcome.
type Cell struct {
	N      int
	Result sim.Result
}

// Series is one healer's sweep over sizes.
type Series struct {
	Healer string
	Cells  []Cell
}

// Comparison runs every healer against the given adversary across sizes.
// stretchEvery > 0 additionally measures stretch at that round cadence.
func Comparison(healers []core.Healer, newAttack func() attack.Strategy,
	sizes []int, trials int, seed uint64, stretchEvery int) []Series {
	out := make([]Series, 0, len(healers))
	for hi, h := range healers {
		s := Series{Healer: h.Name()}
		for ni, n := range sizes {
			n := n
			cfg := sim.Config{
				NewGraph:  BAGraph(n),
				NewAttack: newAttack,
				Healer:    h,
				Trials:    trials,
				Rounds:    n,
				// Distinct deterministic seed per cell.
				Seed:         seed + uint64(hi)*1_000_003 + uint64(ni)*7919,
				StretchEvery: stretchEvery,
				Workers:      Workers,
			}
			s.Cells = append(s.Cells, Cell{N: n, Result: sim.Run(cfg)})
		}
		out = append(out, s)
	}
	return out
}

// BAGraph returns a generator closure for a Barabási–Albert graph of the
// given size with the standard attachment parameter.
func BAGraph(n int) func(*rng.RNG) *graph.Graph {
	return func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(n, BAEdges, r) }
}

// seriesTable renders one metric of a comparison as a figure table:
// rows are sizes, one column per healer, plus a reference column.
func seriesTable(title string, series []Series, sizes []int,
	metric func(sim.Result) float64, refName string, ref func(n int) float64) *stats.Table {
	t := &stats.Table{Title: title}
	t.Header = []string{"n"}
	for _, s := range series {
		t.Header = append(t.Header, s.Healer)
	}
	if refName != "" {
		t.Header = append(t.Header, refName)
	}
	for ni, n := range sizes {
		row := []any{n}
		for _, s := range series {
			row = append(row, metric(s.Cells[ni].Result))
		}
		if refName != "" {
			row = append(row, ref(n))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig8 regenerates Figure 8: maximum degree increase versus network size
// for each healing strategy under the NeighborOfMax attack. Expected
// shape: GraphHeal ≫ BinTreeHeal ≫ DASH ≈ SDASH, with DASH under the
// 2·log₂ n line.
func Fig8(sizes []int, trials int, seed uint64) *stats.Table {
	series := Comparison(ComparisonHealers(),
		func() attack.Strategy { return attack.NeighborOfMax{} },
		sizes, trials, seed, 0)
	return seriesTable(
		"Figure 8: max degree increase vs n (NeighborOfMax attack, BA graphs, mean over trials)",
		series, sizes,
		func(r sim.Result) float64 { return r.PeakMaxDelta.Mean },
		"2*log2(n)", func(n int) float64 { return 2 * math.Log2(float64(n)) })
}

// Fig9 regenerates Figure 9(a) (maximum per-node ID changes) and 9(b)
// (maximum per-node messages for component maintenance) from one shared
// comparison run, since the paper reports both for the same workload.
func Fig9(sizes []int, trials int, seed uint64) (a, b *stats.Table) {
	series := Comparison(ComparisonHealers(),
		func() attack.Strategy { return attack.NeighborOfMax{} },
		sizes, trials, seed, 0)
	a = seriesTable(
		"Figure 9(a): max ID changes per node vs n (NeighborOfMax attack, mean over trials)",
		series, sizes,
		func(r sim.Result) float64 { return r.MaxIDChanges.Mean },
		"log2(n)", func(n int) float64 { return math.Log2(float64(n)) })
	b = seriesTable(
		"Figure 9(b): max messages per node vs n (NeighborOfMax attack, mean over trials)",
		series, sizes,
		func(r sim.Result) float64 { return r.MaxMessages.Mean },
		"", nil)
	return a, b
}

// Fig10 regenerates Figure 10: stretch versus network size under the
// MaxNode attack (the adversary the paper found most effective against
// stretch). Expected shape: the naive degree-greedy healers keep stretch
// low and plain DASH is the worst. Two SDASH columns are reported: the
// printed Algorithm 3 (star over the reconnection set only) and the
// prose semantics of §4.6.2 (the surrogate takes *all* of the deleted
// node's connections). Only the prose variant reproduces the paper's
// low-stretch SDASH curve; see EXPERIMENTS.md.
func Fig10(sizes []int, trials int, seed uint64) *stats.Table {
	healers := append(ComparisonHealers(), core.SDASHFull{})
	series := Comparison(healers,
		func() attack.Strategy { return attack.MaxDegree{} },
		sizes, trials, seed, stretchCadence(sizes))
	return seriesTable(
		"Figure 10: max stretch vs n (MaxNode attack, BA graphs, mean over trials)",
		series, sizes,
		func(r sim.Result) float64 { return r.MaxStretch.Mean },
		"log2(n)", func(n int) float64 { return math.Log2(float64(n)) })
}

// stretchCadence picks a measurement cadence that keeps the O(n·m) APSP
// snapshots to about 20 per run at the largest size.
func stretchCadence(sizes []int) int {
	maxN := 0
	for _, n := range sizes {
		if n > maxN {
			maxN = n
		}
	}
	c := maxN / 20
	if c < 1 {
		c = 1
	}
	return c
}

// Thm2 demonstrates the Theorem 2 lower bound: LEVELATTACK on a complete
// (M+2)-ary tree of increasing depth forces the M-degree-bounded LineHeal
// to a degree increase of at least the depth (≈ log_{M+2} n), while DASH
// — which is not degree-bounded per round — stays under its global
// 2·log₂ n guarantee.
func Thm2(m int, depths []int, seed uint64) *stats.Table {
	t := &stats.Table{
		Title:  "Theorem 2: LEVELATTACK on (M+2)-ary trees (M=2): forced degree increase",
		Header: []string{"depth", "n", "LineHeal peak δ", "DASH peak δ", "depth bound", "2*log2(n)"},
	}
	for _, d := range depths {
		tree := gen.CompleteKaryTree(m+2, d)
		n := tree.G.N()
		run := func(h core.Healer) int {
			cfg := sim.Config{
				NewGraph:  func(*rng.RNG) *graph.Graph { return tree.G.Clone() },
				NewAttack: func() attack.Strategy { return attack.NewLevelAttack(tree, m) },
				Healer:    h,
				Trials:    1, // the attack and tree are deterministic
				Seed:      seed,
				Rounds:    n,
				Workers:   Workers,
			}
			return sim.Run(cfg).Trials[0].PeakMaxDelta
		}
		t.AddRow(d, n, run(baseline.LineHeal{}), run(core.DASH{}),
			d, 2*math.Log2(float64(n)))
	}
	return t
}

// Thm1 checks Theorem 1's three bounds on DASH runs: degree increase
// against 2·log₂ n, ID changes against 2·ln n, and per-node messages
// against 2(d + 2·log₂ n)·ln n with d the largest initial degree.
func Thm1(sizes []int, trials int, seed uint64) *stats.Table {
	t := &stats.Table{
		Title: "Theorem 1: DASH measured vs proved bounds (NeighborOfMax attack, BA graphs)",
		Header: []string{"n", "peak δ", "2*log2(n)", "ID changes", "2*ln(n)",
			"max msgs", "msg bound"},
	}
	for ni, n := range sizes {
		cfg := sim.Config{
			NewGraph:  BAGraph(n),
			NewAttack: func() attack.Strategy { return attack.NeighborOfMax{} },
			Healer:    core.DASH{},
			Trials:    trials,
			Seed:      seed + uint64(ni)*104729,
			Rounds:    n,
			Workers:   Workers,
		}
		res := sim.Run(cfg)
		// The message bound depends on a node's initial degree; use the
		// hub degree of a reference instance as the worst case d.
		refG := gen.BarabasiAlbert(n, BAEdges, rng.New(seed+uint64(ni)))
		d := float64(refG.MaxDegree())
		logn := math.Log2(float64(n))
		lnn := math.Log(float64(n))
		t.AddRow(n, res.PeakMaxDelta.Mean, 2*logn,
			res.MaxIDChanges.Mean, 2*lnn,
			res.MaxMessages.Mean, 2*(d+2*logn)*lnn)
	}
	return t
}

// Ablation regenerates the §3.1 argument as an experiment: without
// component tracking, healing on trees leaks at least d-2 total degrees
// per degree-d deletion. DegreeHeal (δ-ordered but component-blind) and
// GraphHeal blow up on random trees; component-aware DASH does not.
func Ablation(sizes []int, trials int, seed uint64) *stats.Table {
	healers := []core.Healer{
		baseline.DegreeHeal{},
		baseline.GraphHeal{},
		baseline.BinaryTreeHeal{},
		core.DASH{},
	}
	t := &stats.Table{
		Title:  "Ablation (§3.1): component tracking on random trees, MaxNode attack: peak δ",
		Header: []string{"n"},
	}
	for _, h := range healers {
		t.Header = append(t.Header, h.Name())
	}
	for ni, n := range sizes {
		row := []any{n}
		for hi, h := range healers {
			n := n
			cfg := sim.Config{
				NewGraph:  func(r *rng.RNG) *graph.Graph { return gen.RandomRecursiveTree(n, r) },
				NewAttack: func() attack.Strategy { return attack.MaxDegree{} },
				Healer:    h,
				Trials:    trials,
				Seed:      seed + uint64(ni)*31 + uint64(hi)*7,
				Rounds:    n,
				Workers:   Workers,
			}
			row = append(row, sim.Run(cfg).PeakMaxDelta.Mean)
		}
		t.AddRow(row...)
	}
	return t
}

// SDASHBehaviour quantifies §4.6.2: how often SDASH surrogates and what
// that buys in stretch relative to DASH at equal degree discipline.
func SDASHBehaviour(sizes []int, trials int, seed uint64) *stats.Table {
	t := &stats.Table{
		Title: "SDASH (§4.6.2): surrogation rate and stretch vs DASH (MaxNode attack)",
		Header: []string{"n", "surrogation rate", "SDASH peak δ", "DASH peak δ",
			"SDASH stretch", "DASH stretch"},
	}
	for ni, n := range sizes {

		run := func(h core.Healer) sim.Result {
			cfg := sim.Config{
				NewGraph:     BAGraph(n),
				NewAttack:    func() attack.Strategy { return attack.MaxDegree{} },
				Healer:       h,
				Trials:       trials,
				Seed:         seed + uint64(ni)*613,
				Rounds:       n,
				Workers:      Workers,
				StretchEvery: stretchCadence([]int{n}),
			}
			return sim.Run(cfg)
		}
		sd := run(core.SDASH{})
		da := run(core.DASH{})
		surr, rounds := 0, 0
		for _, trial := range sd.Trials {
			surr += trial.Surrogations
			rounds += trial.Rounds
		}
		rate := 0.0
		if rounds > 0 {
			rate = float64(surr) / float64(rounds)
		}
		t.AddRow(n, rate, sd.PeakMaxDelta.Mean, da.PeakMaxDelta.Mean,
			sd.MaxStretch.Mean, da.MaxStretch.Mean)
	}
	return t
}

// Batch exercises the footnote-1 extension: simultaneous deletions of
// growing batch sizes, healed by batch DASH, verifying connectivity and
// reporting degree growth.
func Batch(n int, batchSizes []int, trials int, seed uint64) *stats.Table {
	t := &stats.Table{
		Title:  "Batch deletions (footnote 1): batch DASH on BA graphs, random victims",
		Header: []string{"batch", "peak δ", "always connected", "2*log2(n)"},
	}
	for _, k := range batchSizes {
		peaks := make([]float64, trials)
		conns := make([]bool, trials)
		master := rng.New(seed + uint64(k))
		par.ForEachTrial(trials, master, Workers, func(trial int, tr *rng.RNG) {
			s := core.NewState(gen.BarabasiAlbert(n, BAEdges, tr.Split()), tr.Split())
			att := tr.Split()
			peak := 0
			connected := true
			for s.G.NumAlive() > 0 {
				alive := s.G.AliveNodes()
				size := k
				if size > len(alive) {
					size = len(alive)
				}
				batch := make([]int, 0, size)
				for _, i := range att.Perm(len(alive))[:size] {
					batch = append(batch, alive[i])
				}
				peak = s.PeakDeltaEdges(peak, s.DeleteBatchAndHeal(batch).Added)
				if !s.G.Connected() {
					connected = false
				}
			}
			peaks[trial], conns[trial] = float64(peak), connected
		})
		connected := true
		for _, c := range conns {
			connected = connected && c
		}
		t.AddRow(k, stats.Mean(peaks), connected, 2*math.Log2(float64(n)))
	}
	return t
}
