// Command figures regenerates every figure and analytic table of the
// paper's evaluation. This list is the index of them:
//
//	fig8      max degree increase vs n, per healer (NeighborOfMax attack)
//	fig9a     max ID changes per node vs n
//	fig9b     max messages per node vs n
//	fig10     stretch vs n, per healer (MaxNode attack)
//	thm1      DASH measured vs proved bounds
//	thm2      LEVELATTACK lower bound on degree-bounded healing
//	ablation  component tracking ablation (§3.1)
//	sdash     SDASH surrogation behaviour (§4.6.2)
//	batch     simultaneous-deletion extension (footnote 1): BFS-ball batches
//	topo      topology independence of DASH (§1 claim)
//	oracle    open problem: ID propagation vs component oracle
//	churn     joins interleaved with attacks
//	cut       articulation-point adversary stress test
//	latency   Lemma 9: amortized ID-propagation wave depth
//	scenarios preset mixed insert/delete/churn workloads (internal/scenario)
//	headtohead every comparative healer × every attack: δ, stretch,
//	          messages, healing edges, wall-clock (DASH family vs the
//	          forgiving healers of Trehan's successor work)
//
// Examples:
//
//	figures                      # everything, moderate sizes
//	figures -fig fig8 -trials 30 -sizes 64,128,256,512,1024
//	figures -fig thm2 -csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/stats"
)

func main() {
	os.Exit(cli.Run("figures", realMain))
}

// realMain is the single exit path: malformed sizes and unknown -fig
// names are usage errors (exit 2).
func realMain() error {
	var (
		fig     = flag.String("fig", "all", "which artifact to regenerate (fig8|fig9a|fig9b|fig10|thm1|thm2|ablation|sdash|batch|topo|oracle|churn|cut|latency|scenarios|headtohead|all)")
		sizes   = flag.String("sizes", "64,128,256,512", "comma-separated graph sizes")
		trials  = flag.Int("trials", 10, "random instances per cell (paper uses 30)")
		seed    = flag.Uint64("seed", 1, "master random seed")
		csv     = flag.Bool("csv", false, "emit CSV instead of tables")
		workers = flag.Int("workers", 0, "concurrent trial workers per cell (0 = all CPUs, 1 = serial; output is identical at any value)")
	)
	flag.Parse()
	experiments.Workers = *workers

	ns, err := parseSizes(*sizes)
	if err != nil {
		return cli.WrapUsage(err)
	}

	emit := func(t *stats.Table) {
		if *csv {
			fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}

	want := func(name string) bool { return *fig == "all" || *fig == name }
	matched := false

	if want("fig8") {
		matched = true
		emit(experiments.Fig8(ns, *trials, *seed))
	}
	if want("fig9a") || want("fig9b") {
		matched = true
		a, b := experiments.Fig9(ns, *trials, *seed)
		if want("fig9a") {
			emit(a)
		}
		if want("fig9b") {
			emit(b)
		}
	}
	if want("fig10") {
		matched = true
		emit(experiments.Fig10(ns, *trials, *seed))
	}
	if want("thm1") {
		matched = true
		emit(experiments.Thm1(ns, *trials, *seed))
	}
	if want("thm2") {
		matched = true
		emit(experiments.Thm2(2, []int{2, 3, 4, 5}, *seed))
	}
	if want("ablation") {
		matched = true
		emit(experiments.Ablation(ns, *trials, *seed))
	}
	if want("sdash") {
		matched = true
		emit(experiments.SDASHBehaviour(ns, *trials, *seed))
	}
	if want("batch") {
		matched = true
		maxN := ns[len(ns)-1]
		emit(experiments.Batch(maxN, []int{1, 2, 4, 8}, *trials, *seed))
	}
	if want("topo") {
		matched = true
		emit(experiments.Topologies(ns[len(ns)-1], *trials, *seed))
	}
	if want("oracle") {
		matched = true
		emit(experiments.OracleAblation(ns, *trials, *seed))
	}
	if want("churn") {
		matched = true
		maxN := ns[len(ns)-1]
		emit(experiments.Churn(maxN, 2*maxN, *trials, *seed))
	}
	if want("cut") {
		matched = true
		emit(experiments.CutVertexStress(ns, *trials, *seed))
	}
	if want("latency") {
		matched = true
		emit(experiments.Latency(ns, *trials, *seed))
	}
	if want("scenarios") {
		matched = true
		emit(experiments.Scenarios(ns[len(ns)-1], *trials, *seed))
	}
	if want("headtohead") {
		matched = true
		emit(experiments.HeadToHead(ns[len(ns)-1], *trials, *seed))
	}
	if !matched {
		return cli.Usagef("unknown -fig %q", *fig)
	}
	return nil
}

func parseSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 4 {
			return nil, fmt.Errorf("bad size %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
