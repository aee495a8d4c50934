package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// specMetric is an end-to-end metric as BENCHMARK.json defines it.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json this program reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// cellVerdict is one workload × metric comparison.
type cellVerdict struct {
	baseMed, baseQ1, baseQ3 float64
	newMed, newQ1, newQ3    float64
	wins, pairs             int
	change                  float64 // relative change of the median, signed so that positive is better
	verdict                 string
}

// judge compares two sets of runs of one metric. A gain needs the new
// side to win at least nine tenths of the pairs and the medians to differ
// by more than the base's quartile spread; a loss is a median worse by
// more than the bound; a spread wider than the bound leaves the cell
// unresolved unless every new run is better, or every new run worse, than
// every base run.
func judge(base, newer []float64, bound float64, higherBetter bool) cellVerdict {
	var v cellVerdict
	v.baseQ1, v.baseMed, v.baseQ3 = quartiles(base)
	v.newQ1, v.newMed, v.newQ3 = quartiles(newer)
	sign := 1.0
	if !higherBetter {
		sign = -1
	}
	better := func(n, b float64) bool { return sign*(n-b) > 0 }
	v.pairs = min(len(base), len(newer))
	for i := 0; i < v.pairs; i++ {
		if better(newer[i], base[i]) {
			v.wins++
		}
	}
	if v.baseMed != 0 {
		v.change = sign * (v.newMed - v.baseMed) / math.Abs(v.baseMed)
	}
	spread := 0.0
	if v.baseMed != 0 {
		spread = (v.baseQ3 - v.baseQ1) / math.Abs(v.baseMed)
	}
	dominates := func(a, b []float64) bool { // every a better than every b
		for _, x := range a {
			for _, y := range b {
				if !better(x, y) {
					return false
				}
			}
		}
		return true
	}
	switch {
	case v.pairs > 0 && float64(v.wins) >= 0.9*float64(v.pairs) && v.change > 0 &&
		math.Abs(v.newMed-v.baseMed) > v.baseQ3-v.baseQ1:
		v.verdict = "improved"
	case -v.change > bound && (spread <= bound || dominates(base, newer)):
		v.verdict = "worse"
	case spread > bound && !dominates(newer, base):
		v.verdict = "unresolved"
	default:
		v.verdict = "unchanged"
	}
	return v
}

// runCompare implements "bench compare": for every workload and
// end-to-end metric it prints each side's median and quartiles, the pair
// wins, and the verdict under the bounds in BENCHMARK.json. Runs pair up
// by seed when both sides used the same seeds, else in file order.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	basePath := fs.String("base", "", "records of the parent commit (JSONL from --out)")
	newPath := fs.String("new", "", "records of the change")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePath == "" || *newPath == "" {
		fmt.Fprintln(stderr, "bench compare: -base and -new are required")
		return 2
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	base, err := readRecords(*basePath)
	if err == nil {
		var newer []record
		newer, err = readRecords(*newPath)
		if err == nil {
			printComparison(stdout, sp, base, newer)
			return 0
		}
	}
	fmt.Fprintln(stderr, "bench compare:", err)
	return 1
}

func printComparison(w io.Writer, sp spec, base, newer []record) {
	fmt.Fprintf(w, "%-15s %-12s %26s %26s %8s %6s  %s\n",
		"workload", "metric", "base median [q1,q3]", "new median [q1,q3]", "change", "wins", "verdict")
	for _, wl := range sp.Workloads {
		b, n := pairRuns(untraced(base, wl.Name), untraced(newer, wl.Name))
		if len(b) == 0 || len(n) == 0 {
			fmt.Fprintf(w, "%-15s (no untraced runs on one side)\n", wl.Name)
			continue
		}
		for _, m := range sp.EndToEnd {
			v := judge(values(b, m.Name), values(n, m.Name), m.Bound, m.Better == "higher")
			fmt.Fprintf(w, "%-15s %-12s %10.4g [%6.4g,%6.4g] %10.4g [%6.4g,%6.4g] %+7.1f%% %2d/%-3d  %s\n",
				wl.Name, m.Name, v.baseMed, v.baseQ1, v.baseQ3, v.newMed, v.newQ1, v.newQ3,
				100*v.change, v.wins, v.pairs, v.verdict)
		}
	}
}

func untraced(recs []record, name string) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == name && r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out
}

// pairRuns orders both sides so that index i of each is one pair: by
// seed when every base seed also appears on the new side, else as given.
func pairRuns(base, newer []record) ([]record, []record) {
	bySeed := map[uint64]record{}
	for _, r := range newer {
		bySeed[r.Seed] = r
	}
	var b, n []record
	for _, r := range base {
		m, ok := bySeed[r.Seed]
		if !ok {
			return base, newer
		}
		b, n = append(b, r), append(n, m)
	}
	return b, n
}

func values(recs []record, metric string) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.E2E[metric]
	}
	return out
}
