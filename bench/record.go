package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/rng"
)

// metricDef is one metric this benchmark emits. BENCHMARK.json lists the
// same names; a test holds the two equal.
type metricDef struct {
	name, unit string
	better     string // "lower" or "higher"
}

// endToEnd are the metrics every untraced run prints, on every workload.
// An "op" is the workload's unit of work: a heal (kill, join or
// batch-killed node) for the scenario and dist workloads, one §4.1
// delete-and-heal round for paper-figs, one HTTP heal request for
// serve-churn.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},       // median per-round time from round start to its first timed op
	{"ops_per_s", "1/s", "higher"},  // ops completed per timed second (serve: closed loop)
	{"op_p50_us", "us", "lower"},    // op latency median (serve: open loop at the high rate)
	{"op_p99_us", "us", "lower"},    // op latency p99, same population
	{"peak_rss_mb", "MiB", "lower"}, // VmHWM of the workload process (serve: of dashd)
}

// perLayer are the metrics every traced run prints. A layer a workload
// bypasses reads 0: that zero is the measurement that it was bypassed.
var perLayer = []metricDef{
	{"gen.graph_ms", "ms", "lower"},
	{"core.remove_ms", "ms", "lower"},
	{"core.reconnect_ms", "ms", "lower"},
	{"core.sort_ms", "ms", "lower"},
	{"core.wire_ms", "ms", "lower"},
	{"core.flood_ms", "ms", "lower"},
	{"core.join_ms", "ms", "lower"},
	{"core.heals", "count", "higher"},
	{"core.rt_size_mean", "count", "lower"},
	{"core.edges_added", "count", "lower"},
	{"core.flood_depth_sum", "count", "lower"},
	{"core.label_changes", "count", "lower"},
	{"baseline.heal_ms", "ms", "lower"},
	{"scenario.victim_ms", "ms", "lower"},
	{"scenario.self_ms", "ms", "lower"},
	{"sharded.inflight_mean", "count", "higher"},
	{"experiments.fig8_s", "s", "lower"},
	{"experiments.fig10_s", "s", "lower"},
	{"attack.next_ms", "ms", "lower"},
	{"sim.self_ms.fig8", "ms", "lower"},
	{"sim.self_ms.fig10", "ms", "lower"},
	{"server.apply_us_p50", "us", "lower"},
	{"server.apply_us_p99", "us", "lower"},
	{"server.http_us_p50", "us", "lower"},
	{"server.http_us_p99", "us", "lower"},
	{"server.stretch_query_ms", "ms", "lower"},
	{"server.cpu_util", "ratio", "lower"},
	{"server.rejected", "count", "lower"},
	{"serve.low_rate_p99_us", "us", "lower"},
	{"stream.events_per_s", "1/s", "higher"},
	{"stream.lag_events", "count", "lower"},
	{"client.late_ms_p99", "ms", "lower"},
	{"dist.issue_ms", "ms", "lower"},
	{"dist.wait_ms", "ms", "lower"},
	{"dist.drain_ms", "ms", "lower"},
	{"dist.window_ms_p50", "ms", "lower"},
	{"dist.window_ms_p99", "ms", "lower"},
	{"dist.msgs_per_op", "count", "lower"},
	{"dist.flood_depth_sum", "count", "lower"},
	{"dist.goroutines_peak", "count", "lower"},
	{"go.alloc_bytes_per_op", "B", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"proc.cpu_util", "ratio", "lower"},
	{"quality.peak_delta", "count", "lower"},
	{"quality.max_stretch", "ratio", "lower"},
	{"trace.span_share", "ratio", "higher"},
	{"trace.records", "count", "higher"},
}

// outcome is what a workload measured; finish turns it into a record.
type outcome struct {
	setups  []time.Duration // per-round set-up
	gens    []time.Duration // per-round graph generation
	phase   timedPhase      // the timed windows
	rounds  []roundStat
	ops     int64           // ops completed
	failed  int64           // ops that failed, were refused, or were skipped
	lat     []time.Duration // the open round's op latency samples
	digests []string        // one per round, identical for a given seed whether traced or not
	checks  []string        // failed correctness checks

	winMark int // where the open round's timed windows start

	opsPerS float64 // set by workloads whose throughput is not ops / timed wall
	rssMiB  float64 // set by workloads whose footprint lives in another process

	layer   map[string]float64 // workload-specific per-layer values
	spanned time.Duration      // timed wall covered by the workload's spans (trace.span_share)
	notes   map[string]any     // extra facts for the record
}

func newOutcome(traced bool) *outcome {
	return &outcome{
		phase: timedPhase{traced: traced},
		layer: map[string]float64{},
		notes: map[string]any{},
	}
}

// roundStat is one round's share of the timed phase.
type roundStat struct {
	ops   int64
	timed time.Duration
	lat   latencySummary
}

func (o *outcome) failf(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

// endRound closes a round: its completed ops, the timed windows and
// latency samples since the previous round, and its output digest. Only
// the round's latency summary is kept, so the samples never add up to a
// footprint that would show in peak_rss_mb.
func (o *outcome) endRound(ops int64, digest string) {
	var timed time.Duration
	for _, w := range o.phase.windows[o.winMark:] {
		timed += w
	}
	o.rounds = append(o.rounds, roundStat{ops: ops, timed: timed, lat: summarize(o.lat)})
	o.winMark, o.lat = len(o.phase.windows), o.lat[:0]
	o.ops += ops
	o.digests = append(o.digests, digest)
}

// record is one run, as appended to -out files and read by compare.
type record struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     int                `json:"trace"`
	Env       envInfo            `json:"env"`
	Correct   bool               `json:"correct"`
	Checks    []string           `json:"failed_checks,omitempty"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Rounds    int                `json:"rounds"`
	TimedS    float64            `json:"timed_s"`
	WindowsS  []float64          `json:"windows_s"` // the timed windows, in order; the same seed gives the same work per window
	SetupsS   []float64          `json:"setups_s"`
	RoundOpsS []float64          `json:"round_ops_per_s"`
	RoundN    []int              `json:"round_samples"` // op latency samples per round
	RoundP50  []float64          `json:"round_p50_us"`
	RoundP99  []float64          `json:"round_p99_us"`
	TailPct   float64            `json:"tail_pct"` // highest percentile with ≥ 10 samples beyond it in every round
	Digests   []string           `json:"digests"`
	E2E       map[string]float64 `json:"end_to_end"`
	Layer     map[string]float64 `json:"per_layer,omitempty"`
	Notes     map[string]any     `json:"notes,omitempty"`
}

// finish derives every metric from the outcome. Throughput and latency
// are medians over the run's rounds, so one round disturbed by another
// tenant of the machine does not move them. End-to-end values are
// computed for traced runs too, but only untraced runs publish them.
func (o *outcome) finish(name string, seed uint64, seconds time.Duration, tr *tracer, env envInfo) record {
	r := record{
		Workload: name, Seed: seed, Seconds: seconds.Seconds(), Env: env,
		Attempted: o.ops + o.failed, Failed: o.failed,
		Rounds: len(o.digests), TimedS: o.phase.wall.Seconds(),
		Digests: o.digests, Checks: o.checks, Notes: o.notes,
	}
	for _, s := range o.setups {
		r.SetupsS = append(r.SetupsS, s.Seconds())
	}
	for _, w := range o.phase.windows {
		r.WindowsS = append(r.WindowsS, w.Seconds())
	}
	for _, rs := range o.rounds {
		if rs.timed > 0 {
			r.RoundOpsS = append(r.RoundOpsS, float64(rs.ops)/rs.timed.Seconds())
		}
		if rs.lat.Samples > 0 {
			r.RoundN = append(r.RoundN, rs.lat.Samples)
			r.RoundP50 = append(r.RoundP50, rs.lat.P50us)
			r.RoundP99 = append(r.RoundP99, rs.lat.P99us)
		}
	}
	if len(r.RoundN) > 0 {
		r.TailPct = tailPercentile(slices.Min(r.RoundN))
	}
	opsPerS := o.opsPerS
	if opsPerS == 0 {
		opsPerS = median(r.RoundOpsS)
	}
	rss := o.rssMiB
	if rss == 0 {
		var err error
		if rss, err = peakRSSMiB("self"); err != nil {
			o.failf("peak RSS: %v", err)
			r.Checks = o.checks
		}
	}
	r.E2E = map[string]float64{
		"setup_s":     medianDuration(o.setups).Seconds(),
		"ops_per_s":   opsPerS,
		"op_p50_us":   median(r.RoundP50),
		"op_p99_us":   median(r.RoundP99),
		"peak_rss_mb": rss,
	}
	if tr != nil {
		r.Trace = 1
		r.Layer = map[string]float64{}
		for _, m := range perLayer {
			r.Layer[m.name] = o.layer[m.name]
		}
		r.Layer["gen.graph_ms"] = ms(medianDuration(o.gens))
		rt := o.phase.rt
		if o.ops > 0 {
			r.Layer["go.alloc_bytes_per_op"] = float64(rt.allocBytes) / float64(o.ops)
		}
		r.Layer["go.gc_cycles"] = float64(rt.gcCycles)
		r.Layer["go.gc_pause_ms"] = float64(rt.pauseNs) / 1e6
		if w := o.phase.wall.Seconds(); w > 0 {
			r.Layer["proc.cpu_util"] = rt.cpu.Seconds() / (w * float64(env.NProc))
			r.Layer["trace.span_share"] = o.spanned.Seconds() / w
		}
		r.Layer["trace.records"] = float64(len(tr.recs))
	}
	r.Correct = len(r.Checks) == 0 && r.Attempted > 0
	return r
}

// printResult writes the record's metrics as the machine-readable last line:
// end-to-end metrics for an untraced run, per-layer metrics for a traced
// one.
func printResult(w io.Writer, r record) error {
	defs, vals := endToEnd, r.E2E
	if r.Trace == 1 {
		defs, vals = perLayer, r.Layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = -1
		}
		metrics[d.name] = metric{v, d.unit}
	}
	return writeJSONLine(w, struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// printSummary writes a human-readable account of the record.
func printSummary(w io.Writer, r record) {
	fmt.Fprintf(w, "%s seed=%d trace=%d: %d rounds, %.2f s timed, %d ops attempted, %d failed\n",
		r.Workload, r.Seed, r.Trace, r.Rounds, r.TimedS, r.Attempted, r.Failed)
	total := 0
	for _, n := range r.RoundN {
		total += n
	}
	fmt.Fprintf(w, "  op latency: %d samples over %d rounds; every round supports p%g\n", total, len(r.RoundN), r.TailPct)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-12s %14.4f %s\n", m.name, r.E2E[m.name], m.unit)
	}
	if r.Trace == 1 {
		names := make([]string, 0, len(r.Layer))
		for k := range r.Layer {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "  %-26s %14.4f\n", k, r.Layer[k])
		}
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", c)
	}
}

// digestOf hashes a round's outputs into a short hex string.
func digestOf(vals ...any) string {
	h := fnv.New64a()
	for _, v := range vals {
		fmt.Fprintf(h, "%v|", v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// roundSeed derives round i's seed from the run seed, so every round of a
// run gets fresh inputs and the same (seed, round) always gets the same.
func roundSeed(seed uint64, round int) uint64 {
	s := seed ^ 0x6a09e667f3bcc909
	for i := 0; i <= round; i++ {
		rng.SplitMix64(&s)
	}
	return rng.SplitMix64(&s)
}
