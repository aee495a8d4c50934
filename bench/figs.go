package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/sim"
)

// paperFigs regenerates the cells behind the paper's Figure 8 (peak δ
// under NeighborOfMax) and Figure 10 (stretch under MaxNode) through
// experiments.Comparison, the function experiments.Fig8 and Fig10 call,
// with the same healers, adversaries and stretch cadence. An op is one
// §4.1 round: the adversary's pick, the delete-and-heal, and the per-round
// δ scan, timed from one pick to the next. Rounds that end in an exact
// stretch checkpoint (every StretchEvery-th) count toward throughput but
// not toward op latency: they are a different, thousand-fold slower
// population that would otherwise sit right at the p99.
func paperFigs(env *runEnv) *outcome {
	o := newOutcome(env.tr != nil)
	// Serial trials: one trial owns the process at a time, so per-round
	// latencies are not mixed with another trial's cache traffic, and the
	// spans of a figure add up to its wall clock.
	experiments.Workers = 1
	n8, n10, trials := env.sz.fig8N, env.sz.fig10N, env.sz.figTrials
	fig10Healers := append(experiments.ComparisonHealers(), core.SDASHFull{})
	var fig8S, fig10S, self8, self10 float64
	peak, maxStretch := 0, 1.0
	for round := 0; round == 0 || o.phase.wall < env.seconds; round++ {
		seed := roundSeed(env.seed, round)
		f8 := runFig(env, o, experiments.ComparisonHealers(),
			func() attack.Strategy { return attack.NeighborOfMax{} }, n8, trials, seed, 0)
		f10 := runFig(env, o, fig10Healers,
			func() attack.Strategy { return attack.MaxDegree{} }, n10, trials, seed, max(1, n10/20))
		o.setups = append(o.setups, f8.setup+f10.setup)
		fig8S += f8.wall.Seconds()
		fig10S += f10.wall.Seconds()
		self8 += ms(f8.wall) - f8.spanMS
		self10 += ms(f10.wall) - f10.spanMS

		var vals []any
		var ops int64
		for _, f := range []figRun{f8, f10} {
			for _, s := range f.series {
				for _, t := range s.Cells[0].Result.Trials {
					ops += int64(t.Rounds)
					if t.Rounds != t.N {
						o.failf("round %d: %s stopped after %d of %d deletions", round, s.Healer, t.Rounds, t.N)
					}
					vals = append(vals, s.Healer, t.Rounds, t.PeakMaxDelta, t.FinalMaxDelta, t.MaxIDChanges,
						t.MaxMessages, math.Float64bits(t.MaxStretch), math.Float64bits(t.MeanStretch),
						t.Surrogations, t.EdgesAdded)
				}
			}
		}
		o.endRound(ops, digestOf(vals...))
		for _, c := range checkFigs(f8, f10, n8) {
			o.failf("round %d: %s", round, c)
		}
		for _, t := range cell(f8, "DASH").Trials {
			peak = max(peak, t.PeakMaxDelta)
		}
		for _, t := range cell(f10, "DASH").Trials {
			maxStretch = math.Max(maxStretch, t.MaxStretch)
		}
	}
	if tr := env.tr; tr != nil {
		for _, k := range []spanKind{spReconnect, spSort, spWire, spFlood} {
			o.layer[spanNames[k]+"_ms"] = tr.ms(k)
		}
		o.layer["baseline.heal_ms"] = tr.ms(spOtherHeal)
		o.layer["attack.next_ms"] = tr.ms(spAttack)
		o.layer["experiments.fig8_s"] = fig8S
		o.layer["experiments.fig10_s"] = fig10S
		o.layer["sim.self_ms.fig8"] = self8
		o.layer["sim.self_ms.fig10"] = self10
		o.layer["quality.peak_delta"] = float64(peak)
		o.layer["quality.max_stretch"] = maxStretch
		// Spans cover the stage-healed, baseline and attack time; the sim
		// loop's own work (removal, MaxDelta scans, stretch) is the rest.
		spanMS := tr.ms(spAttack) + tr.ms(spOtherHeal)
		for _, k := range []spanKind{spReconnect, spSort, spWire, spFlood} {
			spanMS += tr.ms(k)
		}
		o.spanned = time.Duration(spanMS * float64(time.Millisecond))
	}
	return o
}

type figRun struct {
	series []experiments.Series
	setup  time.Duration // call start to the first adversary pick
	wall   time.Duration // the whole call
	spanMS float64       // traced time inside healers and the adversary
}

func cell(f figRun, healer string) sim.Result {
	for _, s := range f.series {
		if s.Healer == healer {
			return s.Cells[0].Result
		}
	}
	return sim.Result{}
}

// runFig runs one experiments.Comparison call as one timed window, from
// its first adversary pick to its return.
func runFig(env *runEnv, o *outcome, healers []core.Healer, newAttack func() attack.Strategy,
	n, trials int, seed uint64, stretchEvery int) figRun {
	tr := env.tr
	if tr != nil {
		wrapped := make([]core.Healer, len(healers))
		for i, h := range healers {
			switch h.(type) {
			case core.DASH, core.SDASH:
				wrapped[i] = newStageHealer(h, tr, &healStats{})
			default:
				wrapped[i] = timedHealer{inner: h, tr: tr}
			}
		}
		healers = wrapped
	}
	before := spanTotalMS(tr)
	start := time.Now()
	var attacks []*timedAttack
	series := experiments.Comparison(healers, func() attack.Strategy {
		a := &timedAttack{inner: newAttack(), tr: tr, checkpointEvery: stretchEvery,
			onFirst: func(t time.Time) { o.phase.begin(t) }}
		attacks = append(attacks, a)
		return a
	}, []int{n}, trials, seed, stretchEvery)
	end := time.Now()
	o.phase.end(end)
	f := figRun{series: series, setup: o.phase.t0.Sub(start), wall: end.Sub(start), spanMS: spanTotalMS(tr) - before}
	for _, a := range attacks {
		o.lat = append(o.lat, a.lat...)
	}
	return f
}

func spanTotalMS(tr *tracer) float64 {
	if tr == nil {
		return 0
	}
	total := 0.0
	for _, k := range []spanKind{spReconnect, spSort, spWire, spFlood, spOtherHeal, spAttack} {
		total += tr.ms(k)
	}
	return total
}

// checkFigs checks the paper's claims the figures exist to show: DASH
// keeps every δ within 2·log₂ n (Figure 8), and the connectivity-keeping
// healers end every Figure 10 trial with a finite stretch.
func checkFigs(f8, f10 figRun, n8 int) []string {
	var bad []string
	bound := 2 * math.Log2(float64(n8))
	for _, t := range cell(f8, "DASH").Trials {
		if float64(t.PeakMaxDelta) > bound {
			bad = append(bad, fmt.Sprintf("Figure 8 DASH peak δ %d above 2·log₂ n = %.1f", t.PeakMaxDelta, bound))
		}
	}
	for _, h := range []string{"DASH", "SDASH"} {
		c := cell(f10, h)
		if len(c.Trials) == 0 {
			bad = append(bad, "Figure 10 has no "+h+" cell")
		}
		for _, t := range c.Trials {
			if math.IsInf(t.MaxStretch, 0) || math.IsNaN(t.MaxStretch) {
				bad = append(bad, "Figure 10 "+h+" trial disconnected (infinite stretch)")
			}
		}
	}
	return bad
}

// timedAttack times an adversary's picks; the interval from one pick to
// the next is one §4.1 round. sim measures stretch after round k when
// k%StretchEvery == 0, so those intervals are left out of lat.
type timedAttack struct {
	inner           attack.Strategy
	tr              *tracer
	checkpointEvery int
	onFirst         func(time.Time)
	last            time.Time
	picks           int
	lat             []time.Duration
}

func (a *timedAttack) Name() string { return a.inner.Name() }

func (a *timedAttack) Next(s *core.State, r *rng.RNG) int {
	now := time.Now()
	if a.last.IsZero() {
		if a.onFirst != nil {
			a.onFirst(now)
		}
	} else if a.checkpointEvery == 0 || a.picks%a.checkpointEvery != 0 {
		a.lat = append(a.lat, now.Sub(a.last))
	}
	a.last = now
	a.picks++
	a.tr.nextOp()
	v := a.inner.Next(s, r)
	a.tr.add(spAttack, now, time.Since(now))
	return v
}
