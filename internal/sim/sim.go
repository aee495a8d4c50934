// Package sim is the paper's experiment methodology (§4.1) as a
// facade: repeat over random graph instances — delete one node per round
// according to an attack strategy, heal, measure — and aggregate the
// per-trial statistics. The rounds run on internal/scenario's trial
// loop as a one-phase Attrition schedule; sim only translates its
// Config into a scenario.Config and folds each trial's result and final
// state into a Trial.
package sim

import (
	"fmt"
	"math"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Config describes one experiment cell: a graph family, an adversary, a
// healer, and the measurement plan.
type Config struct {
	// NewGraph builds a fresh initial topology per trial.
	NewGraph func(r *rng.RNG) *graph.Graph
	// NewAttack builds a fresh adversary per trial (adversaries may be
	// stateful).
	NewAttack func() attack.Strategy
	// Healer is the healing strategy under test. Stateful healers
	// (core.PerState) are instanced per trial via core.InstanceFor, so
	// one configured value is safe at any Workers count.
	Healer core.Healer
	// Trials is the number of random instances to average over
	// (the paper uses 30). Defaults to 1.
	Trials int
	// Seed makes the whole experiment reproducible.
	Seed uint64
	// Rounds is the number of deletions per trial (>= 1); the graph's
	// node count deletes everything. A trial ends early when the
	// adversary returns attack.NoTarget, as every adversary in
	// internal/attack does on an empty graph.
	Rounds int
	// StretchEvery measures stretch every k rounds (plus once at the
	// end); 0 disables stretch measurement entirely.
	StretchEvery int
	// TrackConnectivity verifies the surviving graph stays connected
	// after every round (incrementally, through scenario.ConnTracker).
	TrackConnectivity bool
	// Workers is the number of concurrent trial workers: 0 uses every
	// CPU, 1 forces the serial path. Results are bit-identical at any
	// worker count: each trial's RNG is pre-split from the master seed in
	// trial order and trials write only their own result slot.
	Workers int
}

// Trial is the outcome of one run over one random instance.
type Trial struct {
	N               int     // initial node count
	Rounds          int     // deletions performed
	PeakMaxDelta    int     // max over rounds of max over nodes of δ
	FinalMaxDelta   int     // max δ at the end of the run
	MaxIDChanges    int     // worst per-node ID-change count (Fig. 9a)
	MaxMessages     int64   // worst per-node message count (Fig. 9b)
	MaxStretch      float64 // worst stretch over checkpoints (Fig. 10)
	MeanStretch     float64 // mean-ratio stretch at the worst checkpoint
	Surrogations    int     // SDASH star reconnections
	EdgesAdded      int     // total healing edges added to G
	AlwaysConnected bool    // whether the surviving graph stayed connected
}

// Result aggregates a full experiment cell.
type Result struct {
	HealerName string
	AttackName string
	Trials     []Trial

	PeakMaxDelta stats.Summary
	MaxIDChanges stats.Summary
	MaxMessages  stats.Summary
	MaxStretch   stats.Summary
	EdgesAdded   stats.Summary
}

// Run executes the experiment described by cfg.
func Run(cfg Config) Result {
	if cfg.NewGraph == nil || cfg.NewAttack == nil || cfg.Healer == nil {
		panic("sim: Config needs NewGraph, NewAttack and Healer")
	}
	if cfg.Rounds < 1 {
		panic(fmt.Sprintf("sim: Config.Rounds = %d, need at least one deletion", cfg.Rounds))
	}
	measureEvery := cfg.StretchEvery
	if measureEvery == 0 {
		measureEvery = -1
	}
	// Observe runs once per trial, before its first round; the states
	// are read once every trial has finished.
	states := make([]*core.State, max(cfg.Trials, 1))
	sr, err := scenario.Run(scenario.Config{
		NewGraph: cfg.NewGraph,
		Schedule: scenario.Schedule{Name: "attrition", Phases: []scenario.Phase{scenario.Attrition(cfg.Rounds)}},
		Healer:   cfg.Healer,
		NewVictim: func() scenario.VictimPolicy {
			return scenario.FromAttack{S: cfg.NewAttack()}
		},
		Trials:       cfg.Trials,
		Seed:         cfg.Seed,
		Workers:      cfg.Workers,
		MeasureEvery: measureEvery,
		// Exact stretch at every size: the figures' cells are small.
		SampleThreshold:   math.MaxInt,
		TrackConnectivity: cfg.TrackConnectivity,
		Observe:           func(i int, s *core.State) { states[i] = s },
	})
	if err != nil {
		panic("sim: " + err.Error())
	}
	res := Result{HealerName: sr.HealerName, AttackName: sr.VictimName, Trials: make([]Trial, len(sr.Trials))}
	for i, t := range sr.Trials {
		s := states[i]
		res.Trials[i] = Trial{
			N:               t.N,
			Rounds:          t.Deletes,
			PeakMaxDelta:    t.PeakDelta,
			FinalMaxDelta:   s.MaxDelta(),
			MaxIDChanges:    s.MaxIDChanges(),
			MaxMessages:     s.MaxMessages(),
			MaxStretch:      t.MaxStretch,
			MeanStretch:     t.MeanStretch,
			Surrogations:    t.Surrogations,
			EdgesAdded:      t.EdgesAdded,
			AlwaysConnected: t.AlwaysConnected,
		}
	}
	agg := func(f func(Trial) float64) stats.Summary {
		xs := make([]float64, len(res.Trials))
		for i, t := range res.Trials {
			xs[i] = f(t)
		}
		return stats.Summarize(xs)
	}
	res.PeakMaxDelta = agg(func(t Trial) float64 { return float64(t.PeakMaxDelta) })
	res.MaxIDChanges = agg(func(t Trial) float64 { return float64(t.MaxIDChanges) })
	res.MaxMessages = agg(func(t Trial) float64 { return float64(t.MaxMessages) })
	res.MaxStretch = agg(func(t Trial) float64 { return t.MaxStretch })
	res.EdgesAdded = agg(func(t Trial) float64 { return float64(t.EdgesAdded) })
	return res
}

// String renders a one-line summary of the aggregate, for quick logging.
func (r Result) String() string {
	return fmt.Sprintf("%s vs %s: peak δ %.2f±%.2f, ID changes %.2f, messages %.1f, stretch %.2f",
		r.HealerName, r.AttackName,
		r.PeakMaxDelta.Mean, r.PeakMaxDelta.Std,
		r.MaxIDChanges.Mean, r.MaxMessages.Mean, r.MaxStretch.Mean)
}
