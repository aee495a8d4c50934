// Command bench is the repository benchmark. It runs one of six
// workloads, from the sequential heal engine up to the dashd daemon, for a
// fixed number of timed seconds, checks that the outputs are correct, and
// prints every metric by name with its unit; the last line of its output
// is one JSON object with the keys correct, attempted, failed and
// metrics.
//
//	bench --workload churn-seq --seed 1 --seconds 10 --trace 0
//	bench --seed 1                  # every workload, each in its own child process
//	bench --seed 1 --trace 1        # every workload untraced and traced, digests compared
//	bench compare -base A.jsonl -new B.jsonl
//
// --trace 1 runs the same workload and seed with spans recorded around the
// calls into each layer and prints the per-layer metrics instead; the
// untraced run is the one whose end-to-end numbers count. run.sh builds
// this program and dashd from the checkout and runs it; see README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workload is one named input set; BENCHMARK.json and README.md say why
// each is in the benchmark.
type workload struct {
	name string
	run  func(*runEnv) *outcome
}

var workloads = []workload{
	{"churn-seq", churnSeq},
	{"churn-sharded", churnSharded},
	{"attack-maxnode", attackMaxNode},
	{"paper-figs", paperFigs},
	{"serve-churn", serveChurn},
	{"dist-churn", distChurn},
}

// sizes are the workload input sizes. The full sizes define the
// benchmark; tiny ones exist for the smoke tests.
type sizes struct {
	churnN, attackN int
	fig8N, fig10N   int
	figTrials       int
	serveN          int
	serveRates      [2]float64 // open-loop requests per second: low, high
	distN           int
}

var fullSizes = sizes{
	churnN: 100_000, attackN: 8192,
	fig8N: 4096, fig10N: 256, figTrials: 2,
	serveN: 100_000, serveRates: [2]float64{500, 1000},
	distN: 8192,
}

// runEnv is what a workload run gets.
type runEnv struct {
	seed    uint64
	seconds time.Duration
	tr      *tracer // nil when untraced
	sz      sizes
	nproc   int    // the ceiling on connections and worker goroutines
	dashd   string // dashd binary for serve-churn
	workdir string // scratch space for snapshots and span files
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in its own child process")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 12, "timed seconds per run")
	traceOn := fs.Int("trace", 0, "1 records spans and prints per-layer metrics")
	out := fs.String("out", "", "append the full run record as one JSON line to this file")
	dashd := fs.String("dashd", "", "dashd binary (serve-churn)")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for snapshots, span files and child records")
	buildS := fs.Float64("build-s", 0, "seconds spent building before this run, recorded apart from setup_s")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	env := &runEnv{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		sz: fullSizes, nproc: runtime.NumCPU(), dashd: *dashd, workdir: *workdir,
	}
	if *name == "" {
		return runSuite(args, *traceOn == 1, *out, *workdir, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *traceOn == 1 {
		env.tr = newTracer()
	}
	rec := runWorkload(w, env, readEnv(*buildS))
	if env.tr != nil {
		path := filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		if err := env.tr.writeJSONL(path); err != nil {
			rec.Checks = append(rec.Checks, fmt.Sprintf("writing spans: %v", err))
			rec.Correct = false
		}
		rec.Notes["span_file"] = path
	}
	printSummary(stdout, rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := printResult(stdout, rec); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload runs w once and turns its outcome into a record.
func runWorkload(w workload, env *runEnv, info envInfo) record {
	o := w.run(env)
	if len(o.setups) == 0 {
		o.failf("no round completed")
	}
	return o.finish(w.name, env.seed, env.seconds, env.tr, info)
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := writeJSONLine(f, rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// runSuite runs every workload in its own re-executed child process, so
// no heap or peak RSS carries over from one workload to the next. With
// traced set it runs each workload untraced and then traced with the same
// seed, requires the traced digests to equal the untraced ones, and
// reports what tracing cost.
func runSuite(args []string, traced bool, out, workdir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	modes := []int{0}
	if traced {
		modes = []int{0, 1}
	}
	status := 0
	for _, w := range workloads {
		var recs []record
		for _, mode := range modes {
			tmp := filepath.Join(workdir, fmt.Sprintf("child-%s-%d.jsonl", w.name, mode))
			_ = os.Remove(tmp) // a stale file from an earlier run would be read back below
			cargs := append(filterArgs(args, "trace", "out", "workload"),
				"--workload", w.name, "--trace", strconv.Itoa(mode), "--out", tmp)
			cmd := exec.Command(self, cargs...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s (trace %d): %v\n", w.name, mode, err)
				status = 1
			}
			rs, err := readRecords(tmp)
			if err != nil || len(rs) != 1 {
				fmt.Fprintf(stderr, "bench: %s (trace %d) left no record\n", w.name, mode)
				status = 1
				continue
			}
			recs = append(recs, rs[0])
			if out != "" {
				if err := appendRecord(out, rs[0]); err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					status = 1
				}
			}
		}
		if traced && len(recs) == 2 {
			if msg := compareDigests(recs[0].Digests, recs[1].Digests); msg != "" {
				fmt.Fprintf(stdout, "%s: TRACED DIGESTS DIFFER: %s\n", w.name, msg)
				status = 1
			} else {
				fmt.Fprintf(stdout, "%s: traced digests equal the untraced ones over %d rounds\n",
					w.name, min(len(recs[0].Digests), len(recs[1].Digests)))
			}
			share := recs[1].Layer["trace.span_share"]
			fmt.Fprintf(stdout, "%s: tracing costs %+.1f%% timed wall over %d common windows and %+.1f%% op p50; spans cover %.1f%% of the timed phase, the remainder %.1f%%\n",
				w.name, 100*windowOverhead(recs[0].WindowsS, recs[1].WindowsS), min(len(recs[0].WindowsS), len(recs[1].WindowsS)),
				100*(recs[1].E2E["op_p50_us"]/recs[0].E2E["op_p50_us"]-1), 100*share, 100*(1-share))
		}
	}
	return status
}

// compareDigests reports how two runs' per-round digests differ over the
// rounds both completed ("" when they agree).
func compareDigests(a, b []string) string {
	n := min(len(a), len(b))
	if n == 0 {
		return "no rounds to compare"
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("round %d: %s vs %s", i, a[i], b[i])
		}
	}
	return ""
}

// windowOverhead is how much longer the traced run's timed windows took
// than the untraced run's, over the windows both completed: the same seed
// gives both the same work window by window.
func windowOverhead(untracedS, tracedS []float64) float64 {
	var u, t float64
	for i := 0; i < min(len(untracedS), len(tracedS)); i++ {
		u += untracedS[i]
		t += tracedS[i]
	}
	if u == 0 {
		return 0
	}
	return t/u - 1
}

// filterArgs drops the named flags (and their values) from args.
func filterArgs(args []string, drop ...string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		k, _, hasValue := strings.Cut(a, "=")
		skip := false
		for _, d := range drop {
			skip = skip || k == d
		}
		if !skip {
			out = append(out, args[i])
			continue
		}
		if !hasValue && i+1 < len(args) {
			i++
		}
	}
	return out
}
