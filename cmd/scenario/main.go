// Command scenario runs mixed insert/delete/churn workloads — the
// preset schedules of internal/scenario — through a chosen healer at
// scales up to 10⁵–10⁶ nodes, emitting per-checkpoint metrics as JSONL
// and (optionally) the full mutation trace of trial 0 as JSONL via
// internal/trace.
//
// Above -sample-threshold alive nodes the checkpoints report sampled
// stretch/diameter estimates (k random BFS sources, 95% CIs) instead of
// exact O(n·m) sweeps, so large runs complete in seconds.
//
// The MaxNode and NeighborOfMax victim policies pick through the
// graph's own degree-bucketed index (G.MaxDegreeNode), so adversarial
// runs scale to the same sizes as Uniform ones.
//
// With -differential the preset is not swept but replayed: trial 0 runs
// through the sequential engine AND the distributed actor-per-node
// engine — batch kills included, via the staged batch-kill epoch — with
// exact G/G′/label/δ equality checked at window 1, after every mutating
// event (keep n moderate; every event is checked against a full
// snapshot of the network). Adding -pipelined widens the window to
// scenario.DefaultDiffWindow mutations, so disjoint heal epochs overlap
// on the wire between checks, and checks the same exact equivalence at
// every window flush.
//
// Examples:
//
//	scenario -preset disaster -n 100000
//	scenario -preset disaster -n 2000 -differential
//	scenario -preset sustained-churn -n 2000 -differential -pipelined
//	scenario -preset sustained-churn -n 50000 -heal SDASH -trials 4 -out churn.jsonl
//	scenario -preset flash-crowd -n 512 -victim MaxNode -trace trace.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	os.Exit(cli.Run("scenario", realMain))
}

// realMain is the whole command behind the single exit path: every
// return flows through cli.Run, so output files are closed (and their
// Close errors surfaced) before the process decides its exit code.
func realMain() error {
	var (
		preset    = flag.String("preset", "disaster", "workload preset: "+strings.Join(scenario.PresetNames(), " | "))
		n         = flag.Int("n", 10000, "initial network size (Barabási–Albert, m=3)")
		healName  = flag.String("heal", "DASH", "healing strategy (see selfheal -list)")
		victim    = flag.String("victim", "Uniform", "deletion policy: Uniform (O(1), use at large n) or an attack name (MaxNode | NeighborOfMax | Random | MinNode)")
		trials    = flag.Int("trials", 1, "independent instances")
		seed      = flag.Uint64("seed", 1, "master random seed")
		workers   = flag.Int("workers", 0, "concurrent trial workers (0 = all CPUs; results identical at any value)")
		measure   = flag.Int("measure-every", 0, "events between metric checkpoints (0 = ~10 checkpoints, -1 = final only)")
		threshold = flag.Int("sample-threshold", metrics.DefaultSampleThreshold, "alive-node count at which metrics switch to sampling")
		sources   = flag.Int("sample-sources", metrics.DefaultSampleSources, "BFS sources per sampled measurement")
		conn      = flag.Bool("connectivity", true, "track connectivity incrementally")
		connEvery = flag.Int("connectivity-every", 1, "connectivity check cadence: 1 = every event (exact first-break), k > 1 = one batched check per k events (flat cost on churn-heavy schedules)")
		out       = flag.String("out", "", "write checkpoint JSONL to this file ('-' = stdout)")
		tracePath = flag.String("trace", "", "write trial 0's mutation trace as JSONL to this file")
		diff      = flag.Bool("differential", false, "replay trial 0 through the sequential AND distributed engines at window 1, verifying exact equality after every event (DASH/SDASH only; keep n moderate)")
		pipelined = flag.Bool("pipelined", false, "with -differential: widen the window to "+strconv.Itoa(scenario.DefaultDiffWindow)+" mutations so heal epochs overlap, checking equality at each window flush")
		shards    = flag.Int("shards", 0, "run trials on the sharded commit path with this many graph shards (rounded up to a power of two; DASH/SDASH + Uniform victims only, implies -connectivity=false)")
		commitW   = flag.Int("commit-workers", 0, "with -shards: concurrent commit workers within each trial (0 = all CPUs)")
		benchOut  = flag.String("bench-out", "", "write a machine-readable benchmark record (wall clock, heals/sec, latency percentiles) as JSON to this file")
	)
	flag.Parse()
	if err := gen.CheckBarabasiAlbert(*n, 3); err != nil {
		return cli.Usagef("-n %d: %v", *n, err)
	}
	if *pipelined && !*diff {
		return cli.Usagef("-pipelined requires -differential")
	}
	if *shards > 0 && *diff {
		return cli.Usagef("-shards is incompatible with -differential (the replay harness assumes the sequential engine)")
	}
	if *diff {
		window := 1
		if *pipelined {
			window = scenario.DefaultDiffWindow
		}
		return runDifferential(os.Stdout, *preset, *n, *healName, *victim, *seed, window)
	}
	connSet := false
	flag.Visit(func(f *flag.Flag) { connSet = connSet || f.Name == "connectivity" })
	if *shards > 0 && !connSet {
		// Connectivity tracking defaults on, but it observes every event
		// and the concurrent commit path can't host it; an explicit
		// -connectivity=true still reaches scenario.Run's validation.
		*conn = false
	}
	_, err := run(os.Stdout, runOpts{
		preset: *preset, n: *n, heal: *healName, victim: *victim,
		trials: *trials, seed: *seed, workers: *workers, measure: *measure,
		threshold: *threshold, sources: *sources, conn: *conn, connEvery: *connEvery,
		out: *out, tracePath: *tracePath,
		shards: *shards, commitWorkers: *commitW, benchOut: *benchOut,
	})
	return err
}

// victimPolicy resolves the -victim flag into a per-trial policy
// constructor (nil means the default O(1) Uniform sampler).
func victimPolicy(victim string) (func() scenario.VictimPolicy, error) {
	if victim == "" || victim == "Uniform" {
		return nil, nil
	}
	newAttack, err := repro.AttackByName(victim)
	if err != nil {
		return nil, err
	}
	return func() scenario.VictimPolicy {
		return scenario.FromAttack{S: newAttack()}
	}, nil
}

// runDifferential replays a preset differentially: the scenario runner
// drives the sequential engine, every mutation is mirrored onto the
// distributed network, the two are compared at every window flush, and
// any divergence is an error.
func runDifferential(w io.Writer, preset string, n int, healName, victim string, seed uint64, window int) error {
	sc, err := scenario.Preset(preset, n)
	if err != nil {
		return cli.WrapUsage(err)
	}
	healer, err := repro.HealerByName(healName)
	if err != nil {
		return cli.WrapUsage(err)
	}
	newVictim, err := victimPolicy(victim)
	if err != nil {
		return cli.WrapUsage(err)
	}
	rep, err := scenario.ReplayDifferential(scenario.Config{
		NewGraph:     func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(n, 3, r) },
		Schedule:     sc,
		Healer:       healer,
		NewVictim:    newVictim,
		Seed:         seed,
		MeasureEvery: -1,
	}, window, 5*time.Minute)
	if err != nil {
		return err
	}
	how := "at window 1, after every event"
	if window > 1 {
		how = fmt.Sprintf("at every %d-op pipelined flush", window)
	}
	fmt.Fprintf(w, "differential replay of %q (n=%d, %s healing, %s victims): engines agreed %s\n",
		preset, n, healName, victimName(victim), how)
	fmt.Fprintf(w, "  %d events: %d kills, %d joins, %d batch epochs killing %d nodes, %d healing rounds\n",
		rep.Events, rep.Kills, rep.Joins, rep.BatchKills, rep.Killed, rep.Rounds)
	return nil
}

// victimName normalizes the flag's empty default for display.
func victimName(victim string) string {
	if victim == "" {
		return "Uniform"
	}
	return victim
}

// runOpts carries the sweep path's resolved flags.
type runOpts struct {
	preset, heal, victim string
	n, trials            int
	seed                 uint64
	workers, measure     int
	threshold, sources   int
	conn                 bool
	connEvery            int
	out, tracePath       string

	shards, commitWorkers int
	benchOut              string
}

func run(w io.Writer, o runOpts) (scenario.Result, error) {
	sc, err := scenario.Preset(o.preset, o.n)
	if err != nil {
		return scenario.Result{}, cli.WrapUsage(err)
	}
	healer, err := repro.HealerByName(o.heal)
	if err != nil {
		return scenario.Result{}, cli.WrapUsage(err)
	}
	if o.shards > 0 && o.tracePath != "" {
		return scenario.Result{}, cli.Usagef("-shards is incompatible with -trace (tracing assumes a single mutator)")
	}
	cfg := scenario.Config{
		NewGraph:          func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(o.n, 3, r) },
		Schedule:          sc,
		Healer:            healer,
		Trials:            o.trials,
		Seed:              o.seed,
		Workers:           o.workers,
		MeasureEvery:      measureCadence(o.measure, sc.Events()),
		SampleThreshold:   o.threshold,
		SampleSources:     o.sources,
		TrackConnectivity: o.conn,
		ConnectivityEvery: o.connEvery,
		Shards:            o.shards,
		CommitWorkers:     o.commitWorkers,
	}
	newVictim, err := victimPolicy(o.victim)
	if err != nil {
		return scenario.Result{}, cli.WrapUsage(err)
	}
	cfg.NewVictim = newVictim
	var rec *trace.Recorder
	if o.tracePath != "" {
		cfg.Observe = func(trial int, s *core.State) {
			if trial == 0 {
				rec = trace.Attach(s)
			}
		}
	}
	var lat *latencySink
	if o.benchOut != "" {
		lat = &latencySink{}
		cfg.ObserveLatency = lat.observe
	}

	start := time.Now()
	res, err := scenario.Run(cfg)
	wall := time.Since(start)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(w, "%s\n", res.String())
	fmt.Fprintln(w, summaryTable(res).String())

	if o.out != "" {
		// cli.WriteFile owns flush and close, so a full disk or a failing
		// close surfaces as this command's error instead of a silently
		// truncated checkpoint file.
		err := cli.WriteFile(o.out, w, func(dst io.Writer) error {
			return writeCheckpoints(dst, res)
		})
		if err != nil {
			return res, err
		}
		if o.out != "-" {
			fmt.Fprintf(w, "wrote %d checkpoint records to %s\n", checkpointCount(res), o.out)
		}
	}
	if o.tracePath != "" {
		err := cli.WriteFile(o.tracePath, w, func(dst io.Writer) error {
			return trace.EncodeJSONL(dst, rec.Events())
		})
		if err != nil {
			return res, err
		}
		fmt.Fprintf(w, "wrote %d trace events (trial 0) to %s\n", rec.Len(), o.tracePath)
	}
	if o.benchOut != "" {
		b := makeBenchRecord(o, res, wall, lat)
		err := cli.WriteFile(o.benchOut, w, func(dst io.Writer) error {
			enc := json.NewEncoder(dst)
			enc.SetIndent("", "  ")
			return enc.Encode(b)
		})
		if err != nil {
			return res, err
		}
		if o.benchOut != "-" {
			fmt.Fprintf(w, "wrote benchmark record (%0.f heals/sec) to %s\n", b.HealsPerSec, o.benchOut)
		}
	}
	return res, nil
}

// latencySink collects per-operation commit latencies (µs) from
// concurrent workers for the benchmark record's percentiles.
type latencySink struct {
	mu sync.Mutex
	us []int32
}

func (l *latencySink) observe(d time.Duration) {
	us := d.Microseconds()
	if us > math.MaxInt32 {
		us = math.MaxInt32
	}
	l.mu.Lock()
	l.us = append(l.us, int32(us))
	l.mu.Unlock()
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of the sorted samples.
func percentile(sorted []int32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i])
}

// benchRecord is the machine-readable output of -bench-out: one JSON
// object per run, consumed by CI's shard-scaling job and benchstat-style
// trend tracking. Heals counts committed kill + join + batch-kill
// victims across all trials; cores records the machine so cross-run
// comparisons aren't apples to oranges.
type benchRecord struct {
	Preset        string  `json:"preset"`
	N             int     `json:"n"`
	Events        int     `json:"events"`
	Trials        int     `json:"trials"`
	Healer        string  `json:"healer"`
	Victim        string  `json:"victim"`
	Seed          uint64  `json:"seed"`
	Shards        int     `json:"shards"`
	CommitWorkers int     `json:"commit_workers"`
	Workers       int     `json:"workers"`
	Cores         int     `json:"cores"`
	Gomaxprocs    int     `json:"gomaxprocs"`
	WallMS        float64 `json:"wall_ms"`
	Heals         int     `json:"heals"`
	HealsPerSec   float64 `json:"heals_per_sec"`
	P50us         float64 `json:"p50_us"`
	P95us         float64 `json:"p95_us"`
	P99us         float64 `json:"p99_us"`

	// Quality aggregates for the healer-matrix gate (cmd/benchtable):
	// worst trial wins, so a gate on these fields bounds every trial.
	// MaxStretch is -1 when no finite stretch was measured (see finite).
	PeakDelta       int     `json:"peak_delta"`
	MaxStretch      float64 `json:"max_stretch"`
	AlwaysConnected bool    `json:"always_connected"`
	ConnTracked     bool    `json:"connectivity_tracked"`
}

func makeBenchRecord(o runOpts, res scenario.Result, wall time.Duration, lat *latencySink) benchRecord {
	heals := 0
	peakDelta := 0
	maxStretch := -1.0
	connected := true
	for _, tr := range res.Trials {
		heals += tr.Deletes + tr.Inserts + tr.Killed
		if tr.PeakDelta > peakDelta {
			peakDelta = tr.PeakDelta
		}
		if st := finite(tr.MaxStretch); st > maxStretch {
			maxStretch = st
		}
		connected = connected && tr.AlwaysConnected
	}
	b := benchRecord{
		Preset: res.Schedule, N: o.n, Events: res.Events, Trials: len(res.Trials),
		Healer: res.HealerName, Victim: res.VictimName, Seed: o.seed,
		Shards: o.shards, CommitWorkers: o.commitWorkers, Workers: o.workers,
		Cores: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0),
		WallMS:    float64(wall.Nanoseconds()) / 1e6,
		Heals:     heals,
		PeakDelta: peakDelta, MaxStretch: maxStretch,
		AlwaysConnected: connected, ConnTracked: o.conn,
	}
	if s := wall.Seconds(); s > 0 {
		b.HealsPerSec = float64(heals) / s
	}
	if lat != nil {
		sort.Slice(lat.us, func(i, j int) bool { return lat.us[i] < lat.us[j] })
		b.P50us = percentile(lat.us, 0.50)
		b.P95us = percentile(lat.us, 0.95)
		b.P99us = percentile(lat.us, 0.99)
	}
	return b
}

// measureCadence resolves the -measure-every flag: 0 spaces ~10
// checkpoints across the schedule, negative disables intermediate
// checkpoints (final measurement only).
func measureCadence(flagValue, events int) int {
	if flagValue > 0 {
		return flagValue
	}
	if flagValue < 0 {
		return 0 // Config.MeasureEvery 0 = final only
	}
	c := events / 10
	if c < 1 {
		c = 1
	}
	return c
}

func summaryTable(res scenario.Result) *stats.Table {
	t := &stats.Table{
		Title: fmt.Sprintf("scenario %q: %s healing, %s victims, %d events/trial",
			res.Schedule, res.HealerName, res.VictimName, res.Events),
		Header: []string{"trial", "n0", "final alive", "deletes", "inserts", "batch-killed",
			"peak δ", "max stretch", "connected", "exhausted", "sampled"},
	}
	for i, tr := range res.Trials {
		t.AddRow(i, tr.N, tr.FinalAlive, tr.Deletes, tr.Inserts, tr.Killed,
			tr.PeakDelta, finite(tr.MaxStretch), tr.AlwaysConnected, tr.Exhausted,
			tr.SampledMetrics)
	}
	return t
}

// checkpointRecord is one JSONL line: a trial's checkpoint, with
// non-finite stretch flattened to -1 (JSON has no Inf; a disconnected
// pair's stretch is meaningless anyway and the connected flag says why).
type checkpointRecord struct {
	Trial int `json:"trial"`
	scenario.Checkpoint
}

func finite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return -1
	}
	return x
}

func sanitize(cp scenario.Checkpoint) scenario.Checkpoint {
	cp.MaxStretch = finite(cp.MaxStretch)
	cp.MeanStretch = finite(cp.MeanStretch)
	cp.StretchLo = finite(cp.StretchLo)
	cp.StretchHi = finite(cp.StretchHi)
	return cp
}

func writeCheckpoints(w io.Writer, res scenario.Result) error {
	enc := json.NewEncoder(w)
	for i, tr := range res.Trials {
		for _, cp := range tr.Checkpoints {
			if err := enc.Encode(checkpointRecord{Trial: i, Checkpoint: sanitize(cp)}); err != nil {
				return err
			}
		}
	}
	return nil
}

func checkpointCount(res scenario.Result) int {
	total := 0
	for _, tr := range res.Trials {
		total += len(tr.Checkpoints)
	}
	return total
}
