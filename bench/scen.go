package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// scenarioSpec is one scenario.Run configuration. A run repeats it, one
// round per seed from roundSeed, each on a freshly generated graph, until
// the timed rounds add up to the requested seconds.
type scenarioSpec struct {
	n            int
	schedule     scenario.Schedule
	healer       core.Healer // core.DASH{} or core.SDASH{}
	victim       func() scenario.VictimPolicy
	shards       int // > 0: the sharded commit path
	track        bool
	measureEvery int
	deltaBound   bool // check Theorem 1's δ ≤ 2·log₂ n
	// eventLatency makes an op's latency the whole deletion event, timed
	// from one victim pick to the next, instead of the heal alone.
	eventLatency bool
}

func churnSpec(sz sizes) scenarioSpec {
	return scenarioSpec{
		n:            sz.churnN,
		schedule:     scenario.PresetSustainedChurn(sz.churnN),
		healer:       core.SDASH{},
		measureEvery: -1,
	}
}

func churnSeq(env *runEnv) *outcome { return runScenario(env, churnSpec(env.sz)) }

func churnSharded(env *runEnv) *outcome {
	sp := churnSpec(env.sz)
	sp.shards = 16
	return runScenario(env, sp)
}

func attackMaxNode(env *runEnv) *outcome {
	n := env.sz.attackN
	sc := scenario.Schedule{Name: "attack-maxnode", Phases: []scenario.Phase{
		scenario.Disaster(8, max(1, n/64)),
		scenario.Attrition(n / 2),
	}}
	return runScenario(env, scenarioSpec{
		n:            n,
		schedule:     sc,
		healer:       core.DASH{},
		victim:       scenario.NewMaxDegree,
		track:        true,
		measureEvery: (sc.Events() + 7) / 8, // eight sampled checkpoints
		deltaBound:   true,
		eventLatency: true,
	})
}

// latSink collects op latencies, possibly from concurrent commit workers,
// and reports the start of the first op it sees.
type latSink struct {
	mu      sync.Mutex
	samples []time.Duration
	sum     time.Duration
	onFirst func(start time.Time) // runs once, under mu
}

func (l *latSink) observe(d time.Duration) {
	now := time.Now()
	l.mu.Lock()
	if l.onFirst != nil {
		l.onFirst(now.Add(-d))
		l.onFirst = nil
	}
	l.samples = append(l.samples, d)
	l.sum += d
	l.mu.Unlock()
}

// scheduleCounts returns how many deletions, insertions and batch kills a
// schedule compiles to.
func scheduleCounts(sc scenario.Schedule) (deletes, inserts, batches int, err error) {
	events, err := sc.Compile()
	if err != nil {
		return 0, 0, 0, err
	}
	for _, e := range events {
		switch e.Kind {
		case scenario.OpDelete:
			deletes++
		case scenario.OpInsert:
			inserts++
		case scenario.OpBatchKill:
			batches++
		}
	}
	return deletes, inserts, batches, nil
}

func runScenario(env *runEnv, sp scenarioSpec) *outcome {
	o := newOutcome(env.tr != nil)
	wantDel, wantIns, wantBatch, err := scheduleCounts(sp.schedule)
	if err != nil {
		o.failf("schedule: %v", err)
		return o
	}
	var hs healStats
	var opLatSum, floodDepth, labelChanges float64
	peak, maxStretch := 0, 1.0
	for round := 0; round == 0 || o.phase.wall < env.seconds; round++ {
		seed := roundSeed(env.seed, round)
		var genDur time.Duration
		var st *core.State
		sink := &latSink{}
		cfg := scenario.Config{
			NewGraph: func(r *rng.RNG) *graph.Graph {
				t := time.Now()
				g := gen.BarabasiAlbert(sp.n, 3, r)
				genDur = time.Since(t)
				return g
			},
			Schedule:          sp.schedule,
			Healer:            sp.healer,
			NewVictim:         sp.victim,
			Seed:              seed,
			MeasureEvery:      sp.measureEvery,
			TrackConnectivity: sp.track,
			Shards:            sp.shards,
			CommitWorkers:     env.nproc,
			ObserveLatency:    sink.observe,
		}
		if sp.shards > 0 {
			// Sharded trials reject Observe, so the timed phase starts
			// with the first admitted op.
			sink.onFirst = o.phase.begin
		} else {
			cfg.Observe = func(_ int, s *core.State) {
				st = s
				o.phase.begin(time.Now())
			}
		}
		var events []time.Duration
		if sp.shards == 0 && (sp.eventLatency || env.tr != nil) {
			// scenario's sharded path insists on the Uniform type itself,
			// so it is never wrapped.
			inner := sp.victim
			if inner == nil {
				inner = func() scenario.VictimPolicy { return scenario.Uniform{} }
			}
			var into *[]time.Duration
			if sp.eventLatency {
				into = &events
			}
			cfg.NewVictim = func() scenario.VictimPolicy {
				return &timedVictim{inner: inner(), tr: env.tr, events: into}
			}
		}
		if env.tr != nil && sp.shards == 0 {
			// core.SupportsSharded is a type switch, so the sharded path
			// runs unwrapped and gets outside timings only.
			tr := env.tr
			cfg.Healer = newStageHealer(sp.healer, tr, &hs)
			cfg.ObserveLatency = func(d time.Duration) {
				sink.observe(d)
				start := time.Now().Add(-d)
				if hs.healed {
					tr.add(spRemove, start, d-hs.healSpan)
					hs.healed = false
				} else {
					tr.add(spJoin, start, d)
				}
				tr.nextOp()
			}
		}
		roundStart := time.Now()
		res, err := scenario.Run(cfg)
		o.phase.end(time.Now())
		if err != nil {
			o.failf("round %d: %v", round, err)
			return o
		}
		o.setups = append(o.setups, o.phase.t0.Sub(roundStart))
		o.gens = append(o.gens, genDur)
		if sp.eventLatency {
			o.lat = append(o.lat, events...)
		} else {
			o.lat = append(o.lat, sink.samples...)
		}
		opLatSum += ms(sink.sum)
		tr := res.Trials[0]
		o.endRound(int64(tr.Deletes+tr.Inserts+tr.Killed), trialDigest(tr))
		o.failed += int64(wantDel - tr.Deletes)
		for _, c := range checkScenarioRound(sp, tr, st, wantDel, wantIns, wantBatch) {
			o.failf("round %d: %s", round, c)
		}
		peak = max(peak, tr.PeakDelta)
		maxStretch = math.Max(maxStretch, tr.MaxStretch)
		if st != nil && env.tr != nil {
			floodDepth += float64(st.FloodDepthSum())
			for v := 0; v < st.N(); v++ {
				labelChanges += float64(st.IDChanges(v))
			}
		}
		if round == 0 && sp.shards > 0 {
			// The sharded path claims bit-identical results to the
			// sequential engine; hold it to that on the first round.
			seqCfg := cfg
			seqCfg.Shards, seqCfg.ObserveLatency = 0, nil
			seqCfg.NewGraph = func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(sp.n, 3, r) }
			if seq, err := scenario.Run(seqCfg); err != nil {
				o.failf("sequential reference: %v", err)
			} else if d := trialDigest(seq.Trials[0]); d != o.digests[0] {
				o.failf("round 0: sharded digest %s, sequential %s", o.digests[0], d)
			}
		}
	}
	if env.tr != nil {
		tr := env.tr
		victimMS := tr.ms(spVictim)
		for _, k := range []spanKind{spRemove, spReconnect, spSort, spWire, spFlood, spJoin} {
			o.layer[spanNames[k]+"_ms"] = tr.ms(k)
		}
		o.layer["core.heals"] = float64(hs.heals)
		if hs.heals > 0 {
			o.layer["core.rt_size_mean"] = float64(hs.rtSum) / float64(hs.heals)
		}
		o.layer["core.edges_added"] = float64(hs.edgesAdded)
		o.layer["core.flood_depth_sum"] = floodDepth
		o.layer["core.label_changes"] = labelChanges
		o.layer["scenario.victim_ms"] = victimMS
		timedMS := ms(o.phase.wall)
		if sp.shards > 0 {
			o.layer["sharded.inflight_mean"] = opLatSum / timedMS
		} else {
			o.layer["scenario.self_ms"] = timedMS - victimMS - opLatSum
			o.spanned = time.Duration((victimMS + opLatSum) * float64(time.Millisecond))
		}
		o.layer["quality.peak_delta"] = float64(peak)
		o.layer["quality.max_stretch"] = maxStretch
	}
	return o
}

// checkScenarioRound returns every correctness problem with one round:
// the schedule must run to completion, a tracked network must stay
// connected, the healed state must satisfy core's invariants, and a DASH
// run must stay within Theorem 1's degree bound.
func checkScenarioRound(sp scenarioSpec, tr scenario.TrialResult, st *core.State, wantDel, wantIns, wantBatch int) []string {
	var bad []string
	if tr.Exhausted {
		bad = append(bad, "victim selection ran out before the schedule ended")
	}
	if tr.Deletes != wantDel || tr.Inserts != wantIns || tr.BatchKills != wantBatch {
		bad = append(bad, fmt.Sprintf("ran %d/%d/%d deletes/inserts/batch kills, schedule has %d/%d/%d",
			tr.Deletes, tr.Inserts, tr.BatchKills, wantDel, wantIns, wantBatch))
	}
	if sp.track && !tr.AlwaysConnected {
		bad = append(bad, fmt.Sprintf("network disconnected at event %d", tr.FirstBreak))
	}
	if st != nil {
		if err := st.Verify(false); err != nil {
			bad = append(bad, err.Error())
		}
		if !sp.track && !st.G.Connected() {
			bad = append(bad, "healed network is disconnected")
		}
	}
	if bound := 2 * math.Log2(float64(sp.n)); sp.deltaBound && float64(tr.PeakDelta) > bound {
		bad = append(bad, fmt.Sprintf("peak δ %d above 2·log₂ n = %.1f", tr.PeakDelta, bound))
	}
	return bad
}

// trialDigest hashes everything a trial reports.
func trialDigest(tr scenario.TrialResult) string {
	vals := []any{tr.N, tr.Events, tr.Deletes, tr.Inserts, tr.BatchKills, tr.Killed, tr.EdgesAdded,
		tr.PeakDelta, tr.FinalAlive, tr.FinalEdges, tr.AlwaysConnected, tr.FirstBreak, tr.Exhausted,
		math.Float64bits(tr.MaxStretch), math.Float64bits(tr.MeanStretch)}
	for _, cp := range tr.Checkpoints {
		vals = append(vals, cp.Event, cp.Alive, cp.Edges, cp.PeakDelta, cp.Connected,
			math.Float64bits(cp.MaxStretch), math.Float64bits(cp.MeanStretch), cp.DiameterLB)
	}
	return digestOf(vals...)
}
