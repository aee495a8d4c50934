package experiments

import (
	"math"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/forgiving"
	"repro/internal/sim"
	"repro/internal/stats"
)

// headToHeadHealers is the comparative slate: the paper's DASH family
// against Trehan's successor healers. Order is the table's row order
// within each attack.
func headToHeadHealers() []core.Healer {
	return []core.Healer{
		core.DASH{}, core.SDASH{}, core.SDASHFull{},
		forgiving.Tree{}, forgiving.NewGraph(),
	}
}

// HeadToHead is the cross-paper comparison table: every comparative
// healer against every adversary on one BA workload, reporting peak δ
// (degree cost), worst stretch (distance cost), worst per-node
// messages, healing edges added (amortized edge changes), and
// wall-clock per trial. It is the quantitative form of the lineage's
// central trade: DASH bounds only degree increase, the forgiving
// healers' balanced virtual trees bound degree increase AND stretch.
// Half the network is deleted so surviving pairs still exist to
// measure stretch over.
func HeadToHead(n, trials int, seed uint64) *stats.Table {
	attacks := []struct {
		name string
		mk   func() attack.Strategy
	}{
		{"MaxNode", func() attack.Strategy { return attack.MaxDegree{} }},
		{"NeighborOfMax", func() attack.Strategy { return attack.NeighborOfMax{} }},
		{"Random", func() attack.Strategy { return attack.Random{} }},
		{"MinNode", func() attack.Strategy { return attack.MinDegree{} }},
	}
	t := &stats.Table{
		Title: "Healer head-to-head: DASH family vs forgiving healers (BA graphs, half deleted)",
		Header: []string{"attack", "healer", "peak δ", "2*log2(n)", "max stretch",
			"max msgs", "edges added", "connected", "ms/trial"},
	}
	for ai, a := range attacks {
		for _, h := range headToHeadHealers() {
			start := time.Now()
			// Same seed for every healer in an attack block: they face
			// identical initial graphs and adversary randomness.
			res := headToHeadCell(n, trials, seed+uint64(ai)*271, h, a.mk)
			perTrial := float64(time.Since(start).Milliseconds()) / float64(max(trials, 1))
			connected := true
			for _, tr := range res.Trials {
				connected = connected && tr.AlwaysConnected
			}
			t.AddRow(a.name, h.Name(), res.PeakMaxDelta.Mean,
				2*math.Log2(float64(n)), res.MaxStretch.Mean,
				res.MaxMessages.Mean, res.EdgesAdded.Mean, connected, perTrial)
		}
	}
	return t
}

// headToHeadCell runs one (healer, attack) cell; the experiment tests
// reuse it to pin the qualitative stretch claim without rebuilding the
// whole table.
func headToHeadCell(n, trials int, seed uint64, h core.Healer, mk func() attack.Strategy) sim.Result {
	return sim.Run(sim.Config{
		NewGraph:          BAGraph(n),
		NewAttack:         mk,
		Healer:            h,
		Trials:            trials,
		Seed:              seed,
		Rounds:            (n + 1) / 2,
		StretchEvery:      max(1, n/16),
		TrackConnectivity: true,
		Workers:           Workers,
	})
}
