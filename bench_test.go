// Benchmarks regenerating every artifact of the paper's evaluation (one
// benchmark per figure/table; cmd/figures/main.go lists them). Each
// reports the figure's headline numbers as custom metrics so `go test
// -bench=.` output records the reproduced values next to the timings.
//
// Sizes here are kept moderate so the full suite runs in seconds; use
// cmd/figures for paper-scale sweeps.
package repro

import (
	"math"
	"strconv"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

var benchSizes = []int{64, 128}

const benchTrials = 3

// cellF extracts a numeric cell from a generated table.
func cellF(b *testing.B, t *stats.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", row, col, t.Rows[row][col], err)
	}
	return v
}

// BenchmarkFig8MaxDegreeIncrease regenerates Figure 8: maximum
// degree increase per healer under the NeighborOfMax attack.
func BenchmarkFig8MaxDegreeIncrease(b *testing.B) {
	var tab *stats.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.Fig8(benchSizes, benchTrials, 1)
	}
	last := len(benchSizes) - 1
	b.ReportMetric(cellF(b, tab, last, 1), "GraphHeal_δ")
	b.ReportMetric(cellF(b, tab, last, 2), "BinTree_δ")
	b.ReportMetric(cellF(b, tab, last, 3), "DASH_δ")
	b.ReportMetric(cellF(b, tab, last, 4), "SDASH_δ")
}

// BenchmarkFig8SweepN512 regenerates Figure 8 at the paper's largest
// size only (n=512, 3 trials): the end-to-end sweep benchmark used to
// track the experiment engine's wall-clock across PRs. Run with
// -benchtime=1x; one iteration is already a full four-healer sweep.
func BenchmarkFig8SweepN512(b *testing.B) {
	var tab *stats.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.Fig8([]int{512}, 3, 1)
	}
	b.ReportMetric(cellF(b, tab, 0, 3), "DASH_δ")
}

// BenchmarkFig9aIDChanges regenerates Figure 9(a): worst per-node
// ID-change counts (all strategies stay below log₂ n).
func BenchmarkFig9aIDChanges(b *testing.B) {
	var tabA *stats.Table
	for i := 0; i < b.N; i++ {
		tabA, _ = experiments.Fig9(benchSizes, benchTrials, 2)
	}
	last := len(benchSizes) - 1
	b.ReportMetric(cellF(b, tabA, last, 3), "DASH_idchg")
	b.ReportMetric(math.Log2(float64(benchSizes[last])), "log2n")
}

// BenchmarkFig9bMessages regenerates Figure 9(b): worst per-node
// component-maintenance traffic.
func BenchmarkFig9bMessages(b *testing.B) {
	var tabB *stats.Table
	for i := 0; i < b.N; i++ {
		_, tabB = experiments.Fig9(benchSizes, benchTrials, 3)
	}
	last := len(benchSizes) - 1
	b.ReportMetric(cellF(b, tabB, last, 1), "GraphHeal_msgs")
	b.ReportMetric(cellF(b, tabB, last, 3), "DASH_msgs")
}

// BenchmarkFig10Stretch regenerates Figure 10: stretch under the
// MaxNode attack.
func BenchmarkFig10Stretch(b *testing.B) {
	var tab *stats.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.Fig10(benchSizes, benchTrials, 4)
	}
	last := len(benchSizes) - 1
	b.ReportMetric(cellF(b, tab, last, 3), "DASH_stretch")
	b.ReportMetric(cellF(b, tab, last, 4), "SDASH_stretch")
}

// BenchmarkThm1Bounds regenerates the Theorem 1 check: DASH measured
// against its three proved bounds.
func BenchmarkThm1Bounds(b *testing.B) {
	var tab *stats.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.Thm1(benchSizes, benchTrials, 5)
	}
	last := len(benchSizes) - 1
	b.ReportMetric(cellF(b, tab, last, 1), "measured_δ")
	b.ReportMetric(cellF(b, tab, last, 2), "bound_δ")
}

// BenchmarkThm2LowerBound regenerates the Theorem 2 demonstration:
// LEVELATTACK forcing the 2-degree-bounded LineHeal to δ ≥ depth.
func BenchmarkThm2LowerBound(b *testing.B) {
	var tab *stats.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.Thm2(2, []int{2, 3, 4}, 6)
	}
	b.ReportMetric(cellF(b, tab, 2, 2), "LineHeal_δ_depth4")
	b.ReportMetric(cellF(b, tab, 2, 3), "DASH_δ_depth4")
}

// BenchmarkAblationComponentTracking regenerates the §3.1 ablation:
// component-blind healing leaks degree on trees.
func BenchmarkAblationComponentTracking(b *testing.B) {
	var tab *stats.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.Ablation(benchSizes, benchTrials, 7)
	}
	last := len(benchSizes) - 1
	b.ReportMetric(cellF(b, tab, last, 1), "DegreeHeal_δ")
	b.ReportMetric(cellF(b, tab, last, 4), "DASH_δ")
}

// BenchmarkSDASHSurrogation regenerates the §4.6.2 study.
func BenchmarkSDASHSurrogation(b *testing.B) {
	var tab *stats.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.SDASHBehaviour([]int{benchSizes[0]}, benchTrials, 8)
	}
	b.ReportMetric(cellF(b, tab, 0, 1), "surrogation_rate")
}

// BenchmarkBatchDeletions regenerates the footnote-1 extension table.
func BenchmarkBatchDeletions(b *testing.B) {
	var tab *stats.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.Batch(64, []int{1, 4}, 2, 9)
	}
	b.ReportMetric(cellF(b, tab, 1, 1), "batch4_peak_δ")
}

// BenchmarkTopologyIndependence regenerates the §1-claim table: DASH on
// six different initial topologies.
func BenchmarkTopologyIndependence(b *testing.B) {
	var tab *stats.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.Topologies(64, 2, 10)
	}
	b.ReportMetric(cellF(b, tab, 0, 2), "BA_peak_δ")
	b.ReportMetric(cellF(b, tab, 5, 2), "hypercube_peak_δ")
}

// BenchmarkOracleAblation regenerates the open-problem ablation: the
// message price of ID propagation vs a component oracle.
func BenchmarkOracleAblation(b *testing.B) {
	var tab *stats.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.OracleAblation([]int{64}, 2, 11)
	}
	b.ReportMetric(cellF(b, tab, 0, 3), "DASH_msgs")
	b.ReportMetric(cellF(b, tab, 0, 4), "oracle_msgs")
}

// BenchmarkChurn regenerates the churn table: joins interleaved with
// attacks.
func BenchmarkChurn(b *testing.B) {
	var tab *stats.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.Churn(48, 96, 2, 12)
	}
	b.ReportMetric(cellF(b, tab, 2, 2), "heavy_churn_peak_δ")
}

// BenchmarkCutVertexStress regenerates the articulation-point stress
// table.
func BenchmarkCutVertexStress(b *testing.B) {
	var tab *stats.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.CutVertexStress([]int{64}, 2, 13)
	}
	b.ReportMetric(cellF(b, tab, 0, 1), "DASH_peak_δ")
}

// --- micro-benchmarks of the core operations ---

// benchHealFullRun measures a complete delete-all run of one healer on a
// fresh BA graph per iteration.
func benchHealFullRun(b *testing.B, h Healer) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := gen.BarabasiAlbert(256, 3, rng.New(uint64(i)))
		s := core.NewState(g, rng.New(uint64(i)+1))
		att := attack.NeighborOfMax{}
		r := rng.New(uint64(i) + 2)
		b.StartTimer()
		for s.G.NumAlive() > 0 {
			s.DeleteAndHeal(att.Next(s, r), h)
		}
	}
}

func BenchmarkFullRunDASH(b *testing.B)      { benchHealFullRun(b, DASH) }
func BenchmarkFullRunSDASH(b *testing.B)     { benchHealFullRun(b, SDASH) }
func BenchmarkFullRunBinTree(b *testing.B)   { benchHealFullRun(b, BinaryTreeHeal) }
func BenchmarkFullRunGraphHeal(b *testing.B) { benchHealFullRun(b, GraphHeal) }

// BenchmarkHealStepDASH isolates the per-deletion healing cost on a
// large hub (the worst single-round case).
func BenchmarkHealStepDASH(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := core.NewState(gen.Star(512), rng.New(uint64(i)))
		b.StartTimer()
		s.DeleteAndHeal(0, core.DASH{})
	}
}

// BenchmarkStretchSnapshot measures one APSP stretch measurement, the
// dominant cost of Figure 10 regeneration.
func BenchmarkStretchSnapshot(b *testing.B) {
	g := gen.BarabasiAlbert(256, 3, rng.New(1))
	st := metrics.NewStretch(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.Measure(g)
	}
}

// BenchmarkDistributedRound measures one full distributed healing round
// (death notices through quiescence) on a live actor network.
func BenchmarkDistributedRound(b *testing.B) {
	g := gen.BarabasiAlbert(b.N+8, 3, rng.New(1))
	nw := dist.NewKind(g, dist.InitIDs(core.NewState(g.Clone(), rng.New(2))), dist.HealDASH)
	defer nw.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep, err := nw.Issue(dist.Op{Kind: dist.OpKill, Victim: i})
		if err != nil {
			b.Fatal(err)
		}
		if err := ep.Wait(time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimTrial measures the experiment engine end to end.
func BenchmarkSimTrial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim.Run(sim.Config{
			NewGraph:  experiments.BAGraph(128),
			NewAttack: NeighborOfMax,
			Healer:    DASH,
			Trials:    1,
			Seed:      uint64(i),
			Rounds:    128,
		})
	}
}
