package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// tinySizes run every workload in well under a second.
var tinySizes = sizes{
	churnN: 2000, attackN: 512,
	fig8N: 64, fig10N: 32, figTrials: 1,
	serveN: 500, serveRates: [2]float64{200, 400},
	distN: 128,
}

var dashdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test")
	if err != nil {
		panic(err)
	}
	dashdBin = filepath.Join(dir, "dashd")
	if out, err := exec.Command("go", "build", "-o", dashdBin, "repro/cmd/dashd").CombinedOutput(); err != nil {
		os.Stderr.Write(out)
		dashdBin = "" // serve-churn's smoke test skips
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func tinyEnv(t *testing.T, seed uint64, traced bool) *runEnv {
	env := &runEnv{
		seed: seed, seconds: 150 * time.Millisecond, sz: tinySizes,
		nproc: runtime.NumCPU(), dashd: dashdBin, workdir: t.TempDir(),
	}
	if traced {
		env.tr = newTracer()
	}
	return env
}

// TestWorkloadsSmoke runs every workload at tiny scale on two seeds,
// untraced and traced, and requires correct results, every metric, and
// traced digests equal to the untraced ones.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []uint64{1, 2} {
			t.Run(w.name, func(t *testing.T) {
				if w.name == "serve-churn" && dashdBin == "" {
					t.Skip("dashd did not build")
				}
				plain := runWorkload(w, tinyEnv(t, seed, false), envInfo{NProc: 2})
				traced := runWorkload(w, tinyEnv(t, seed, true), envInfo{NProc: 2})
				for _, r := range []record{plain, traced} {
					if !r.Correct {
						t.Fatalf("trace=%d: incorrect run: %v", r.Trace, r.Checks)
					}
					if r.Attempted <= 0 || r.Failed != 0 {
						t.Fatalf("trace=%d: attempted %d, failed %d", r.Trace, r.Attempted, r.Failed)
					}
					for _, m := range endToEnd {
						if v := r.E2E[m.name]; !(v > 0) {
							t.Errorf("trace=%d: %s = %v, want > 0", r.Trace, m.name, v)
						}
					}
				}
				if msg := compareDigests(plain.Digests, traced.Digests); msg != "" {
					t.Fatalf("traced digests differ: %s", msg)
				}
				if share := traced.Layer["trace.span_share"]; share > 1.05 {
					t.Errorf("spans cover %.3f of the timed phase, more than it lasted", share)
				}
			})
		}
	}
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesMatchSpec holds the emitted metric and workload names equal to
// BENCHMARK.json, and every name to the allowed alphabet.
func TestNamesMatchSpec(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("spec has %d workloads, code %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: spec %q, code %q", i, sp.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, spec []specMetric, code []metricDef) {
		if len(spec) != len(code) {
			t.Fatalf("%s: spec has %d metrics, code %d", kind, len(spec), len(code))
		}
		for i, m := range code {
			s := spec[i]
			if s.Name != m.name || s.Unit != m.unit || s.Better != m.better {
				t.Errorf("%s %d: spec %+v, code %+v", kind, i, s, m)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd)
	check("per_layer", sp.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, n := range append(append([]string{}, workloadNames()...), metricNames()...) {
		if !namePattern.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func metricNames() []string {
	var out []string
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		out = append(out, m.name)
	}
	return out
}

// TestResultLine checks the machine-readable last line: exactly the four
// keys, and exactly the end-to-end or the per-layer metrics.
func TestResultLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r := record{Correct: true, Attempted: 3, E2E: map[string]float64{}, Layer: map[string]float64{}}
		want := endToEnd
		if traced {
			r.Trace, want = 1, perLayer
		}
		var buf bytes.Buffer
		if err := printResult(&buf, r); err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   *bool                      `json:"correct"`
			Attempted *int64                     `json:"attempted"`
			Failed    *int64                     `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		dec := json.NewDecoder(&buf)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(want) {
			t.Fatalf("trace=%v: bad result line %s", traced, buf.String())
		}
		for _, m := range want {
			if _, ok := line.Metrics[m.name]; !ok {
				t.Errorf("trace=%v: %s missing", traced, m.name)
			}
		}
	}
}

// TestCorruptDigestFails: a traced run whose digest differs from the
// untraced one is reported, and a failed check makes the run incorrect.
func TestCorruptDigestFails(t *testing.T) {
	a := []string{"00aa", "00bb"}
	if msg := compareDigests(a, []string{"00aa", "00bb", "00cc"}); msg != "" {
		t.Fatalf("equal prefixes reported as different: %s", msg)
	}
	if msg := compareDigests(a, []string{"00aa", "00bc"}); !strings.Contains(msg, "round 1") {
		t.Fatalf("corrupted digest not reported: %q", msg)
	}
	o := newOutcome(false)
	o.ops = 10
	o.setups = []time.Duration{time.Millisecond}
	o.failf("round 0: sharded digest 00aa, sequential 00bb")
	if r := o.finish("churn-sharded", 1, time.Second, nil, envInfo{NProc: 1}); r.Correct {
		t.Fatal("a run with a failed check is reported correct")
	}
}

// TestDisconnectedResultFails: a disconnected network fails the round's
// checks whether the tracker saw it or the final state shows it.
func TestDisconnectedResultFails(t *testing.T) {
	sp := scenarioSpec{n: 16, track: true}
	if bad := checkScenarioRound(sp, scenario.TrialResult{AlwaysConnected: false, FirstBreak: 7}, nil, 0, 0, 0); len(bad) == 0 {
		t.Fatal("tracked disconnection passed")
	}
	// A path 0-1-2 loses its middle node without healing.
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	st := core.NewState(g, rng.New(1))
	st.Remove(1)
	sp.track = false
	bad := checkScenarioRound(sp, scenario.TrialResult{AlwaysConnected: true}, st, 0, 0, 0)
	if !strings.Contains(strings.Join(bad, ";"), "disconnected") {
		t.Fatalf("disconnected final state passed: %v", bad)
	}
}

// TestStageHealerMatchesCore: the traced stage healer must heal exactly
// like core's DASH and SDASH.
func TestStageHealerMatchesCore(t *testing.T) {
	for _, h := range []core.Healer{core.DASH{}, core.SDASH{}} {
		run := func(healer core.Healer) string {
			res, err := scenario.Run(scenario.Config{
				NewGraph: func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(400, 3, r) },
				Schedule: scenario.PresetDisaster(400), Healer: healer, Seed: 9, MeasureEvery: 50,
				TrackConnectivity: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return trialDigest(res.Trials[0])
		}
		if a, b := run(h), run(newStageHealer(h, newTracer(), &healStats{})); a != b {
			t.Errorf("%s: stage healer digest %s, core %s", h.Name(), b, a)
		}
	}
}

func TestPercentiles(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {11, 0}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	samples := make([]time.Duration, 1000)
	for i := range samples {
		samples[len(samples)-1-i] = time.Duration(i+1) * time.Microsecond
	}
	s := summarize(samples)
	if s.Samples != 1000 || s.P50us != 500 || s.P99us != 990 {
		t.Fatalf("summarize = %+v", s)
	}
	// Percentiles come from nanosecond samples, not whole microseconds.
	if s := summarize([]time.Duration{1500, 2500, 3500}); s.P50us != 2.5 {
		t.Fatalf("p50 of ns samples = %v, want 2.5", s.P50us)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// TestOpenLoopLatency: a stall delays the requests due behind it, timer
// slop does not, not even the requests it pushes back.
func TestOpenLoopLatency(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	const rt = 100 * time.Microsecond
	// Requests due every 250 µs, each taking 100 µs. The generator
	// oversleeps 600 µs before request 1, so requests 1 and 2 actually
	// go out back to back; both still see 100 µs.
	lat0, done := openLoopLatency(at(0), t0, rt)
	lat1, done := openLoopLatency(at(250), done, rt)
	lat2, _ := openLoopLatency(at(500), done, rt)
	if lat0 != rt || lat1 != rt || lat2 != rt {
		t.Fatalf("slop counted: %v %v %v", lat0, lat1, lat2)
	}
	// Request 0 stalls for 1 ms: request 1, due at 250 µs, can start only
	// at 1000 µs, and request 2 at 1100 µs.
	_, done = openLoopLatency(at(0), t0, time.Millisecond)
	lat1, done = openLoopLatency(at(250), done, rt)
	lat2, _ = openLoopLatency(at(500), done, rt)
	if lat1 != 850*time.Microsecond || lat2 != 700*time.Microsecond {
		t.Fatalf("stall not counted: %v %v", lat1, lat2)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		newer        []float64
		higherBetter bool
		want         string
	}{
		{base, true, "unchanged"},
		{shift(1.2), true, "improved"},
		{shift(1.2), false, "worse"},
		{shift(0.8), false, "improved"},
		{shift(1.03), false, "unchanged"}, // worse, but within the 5% bound
	} {
		if v := judge(base, c.newer, 0.05, c.higherBetter); v.verdict != c.want {
			t.Errorf("judge(%v, higherBetter=%v) = %s, want %s", c.newer[0], c.higherBetter, v.verdict, c.want)
		}
	}
	noisy := []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}
	if v := judge(noisy, noisy, 0.05, true); v.verdict != "unresolved" {
		t.Errorf("spread wider than the bound judged %s", v.verdict)
	}
}

func TestFilterArgs(t *testing.T) {
	got := filterArgs([]string{"--seed", "3", "--trace", "1", "-out=x", "--seconds", "2"}, "trace", "out")
	if strings.Join(got, " ") != "--seed 3 --seconds 2" {
		t.Fatalf("filterArgs = %v", got)
	}
}
