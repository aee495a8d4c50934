package scenario

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/rng"
)

// validateSharded rejects Config combinations the concurrent commit
// path cannot honor. The constraints are inherent, not incidental:
// per-event observers (traces, connectivity witnesses) assume a single
// mutator applying events in order, and non-uniform victim policies
// read global graph state (degrees, component structure) per pick,
// which in-flight commits are still changing.
func validateSharded(cfg Config, victim VictimPolicy) error {
	if !core.SupportsSharded(cfg.Healer) {
		return fmt.Errorf("scenario: Shards > 0 requires a core.RegionLocal healer, got %s", cfg.Healer.Name())
	}
	if _, ok := victim.(Uniform); !ok {
		return fmt.Errorf("scenario: Shards > 0 requires Uniform victims, got %s", victim.Name())
	}
	if cfg.TrackConnectivity {
		return fmt.Errorf("scenario: Shards > 0 is incompatible with TrackConnectivity")
	}
	if cfg.Observe != nil {
		return fmt.Errorf("scenario: Shards > 0 is incompatible with Observe (per-event tracing assumes a single mutator)")
	}
	return nil
}

// runTrialSharded executes one trial on the sharded commit path. It
// reuses the sequential trial's construction (identical RNG splits,
// same metrics machinery) and event semantics, but kills and joins are
// submitted to a core.ShardScheduler, which commits region-disjoint
// operations concurrently on CommitWorkers goroutines. Batch kills and
// metric checkpoints run at barriers through the unchanged sequential
// code. The resulting TrialResult is bit-identical to runTrial's: RNG
// draws happen at admission in event order, disjoint commits commute
// exactly, and conflicting commits serialize in issue order (the
// differential test in sharded_test.go holds the two paths equal).
func runTrialSharded(cfg Config, events []Event, victim VictimPolicy, trial int, tr *rng.RNG) TrialResult {
	t := newTrialRun(cfg, events, victim, trial, tr)
	ss := core.NewShardedState(t.s, cfg.Shards)
	sched := core.NewShardScheduler(ss, cfg.Healer, cfg.CommitWorkers)

	var edgesAdded, surrogations atomic.Int64
	observe := cfg.ObserveLatency
	onDone := func(tk *core.ShardTicket) {
		if tk.Kill {
			edgesAdded.Add(int64(len(tk.HR.Added)))
			if tk.HR.Surrogated {
				surrogations.Add(1)
			}
		}
		if observe != nil {
			observe(time.Since(tk.Start))
		}
	}
	// foldPeak pulls the commit-side running peak δ into the trial
	// accounting; call only at quiescence.
	foldPeak := func() {
		if p := int(ss.PeakDelta()); p > t.res.PeakDelta {
			t.res.PeakDelta = p
		}
	}

	for t.res.Events < len(events) {
		ev := events[t.res.Events]
		switch ev.Kind {
		case OpQuiet:
			// nothing to mutate
		case OpDelete:
			if !t.res.Exhausted {
				v := t.victim.Pick(t.s, t.alive, t.victimR)
				if v == attack.NoTarget || !t.s.G.Alive(v) {
					t.res.Exhausted = true
				} else {
					t.alive.Remove(v)
					sched.Kill(v, onDone)
					t.res.Deletes++
				}
			}
		case OpInsert:
			attach := t.alive.RandomDistinct(ev.Size, t.opR)
			v := sched.Join(attach, t.opR, onDone)
			t.alive.Add(v)
			t.res.Inserts++
		case OpBatchKill:
			// Batch heals are a global operation (cluster leaders probe
			// whole G′ components); run them at a barrier through the
			// unchanged sequential engine.
			sched.Barrier()
			t.doBatchKill(t.res.Events, ev.Size)
		}
		t.res.Events++
		if t.cfg.MeasureEvery > 0 && t.res.Events%t.cfg.MeasureEvery == 0 && t.res.Events < len(events) {
			sched.Barrier()
			foldPeak()
			t.checkpoint(ev.Phase)
		}
		if t.res.Events == len(events) && t.cfg.MeasureEvery >= 0 {
			sched.Barrier()
			foldPeak()
			t.checkpoint(ev.Phase)
		}
	}
	sched.Close()
	foldPeak()
	t.res.EdgesAdded += int(edgesAdded.Load())
	t.res.Surrogations += int(surrogations.Load())
	return t.finish()
}
