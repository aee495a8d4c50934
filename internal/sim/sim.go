// Package sim is the sequential experiment engine: it drives the paper's
// methodology (§4.1) — repeat over random graph instances: delete one
// node per round according to an attack strategy, heal, measure — and
// aggregates per-trial statistics.
package sim

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/stats"
)

// ForEachTrial runs body(i, tr) for trials 0..trials-1, fanning out
// across a worker pool. Determinism is preserved at any parallelism: the
// per-trial generators are split from master serially, in trial order,
// before any worker starts, and each body invocation owns trial i alone —
// callers store outputs by index, so merged results match the serial run
// bit for bit. workers <= 0 uses every CPU; 1 runs inline.
func ForEachTrial(trials int, master *rng.RNG, workers int, body func(i int, tr *rng.RNG)) {
	rngs := make([]*rng.RNG, trials)
	for i := range rngs {
		rngs[i] = master.Split()
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > trials {
		workers = trials
	}
	par.Do(trials, workers, func(_, i int) {
		body(i, rngs[i])
	})
}

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
	// DeleteFraction stops a trial after this fraction of the initial
	// nodes has been deleted; values outside (0,1] mean "delete all".
	DeleteFraction float64
	// StretchEvery measures stretch every k rounds (plus once at the
	// end); 0 disables stretch measurement entirely.
	StretchEvery int
	// TrackConnectivity verifies the surviving graph stays connected
	// after every round (cheap enough for experiment sizes).
	TrackConnectivity bool
	// VerifyInvariants runs core.State.Verify after every round and
	// records the first violation in the trial. GpCyclesOK exempts the
	// forest check for strategies (GraphHeal) that break it by design.
	VerifyInvariants bool
	// GpCyclesOK allows G' cycles during invariant verification.
	GpCyclesOK bool
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
	InvariantError  string  // first core invariant violation ("" when clean)
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
	trials := cfg.Trials
	if trials <= 0 {
		trials = 1
	}
	res := Result{HealerName: cfg.Healer.Name()}
	master := rng.New(cfg.Seed)
	res.Trials = make([]Trial, trials)
	ForEachTrial(trials, master, cfg.Workers, func(i int, tr *rng.RNG) {
		res.Trials[i] = runTrial(cfg, tr)
	})
	res.AttackName = cfg.NewAttack().Name()
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

func runTrial(cfg Config, tr *rng.RNG) Trial {
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

	limit := n
	if cfg.DeleteFraction > 0 && cfg.DeleteFraction < 1 {
		limit = int(math.Ceil(cfg.DeleteFraction * float64(n)))
	}

	trial := Trial{N: n, AlwaysConnected: true, MaxStretch: 1, MeanStretch: 1}
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
		trial.PeakMaxDelta = s.PeakDeltaEdges(trial.PeakMaxDelta, hr.Added)
		if cfg.TrackConnectivity && !s.G.Connected() {
			trial.AlwaysConnected = false
		}
		if cfg.VerifyInvariants && trial.InvariantError == "" {
			if err := s.Verify(cfg.GpCyclesOK); err != nil {
				trial.InvariantError = err.Error()
			}
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

// String renders a one-line summary of the aggregate, for quick logging.
func (r Result) String() string {
	return fmt.Sprintf("%s vs %s: peak δ %.2f±%.2f, ID changes %.2f, messages %.1f, stretch %.2f",
		r.HealerName, r.AttackName,
		r.PeakMaxDelta.Mean, r.PeakMaxDelta.Std,
		r.MaxIDChanges.Mean, r.MaxMessages.Mean, r.MaxStretch.Mean)
}
