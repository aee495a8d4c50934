package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tables.golden from the current code")

// goldenTables renders every table `figures -fig all` prints, in its
// order, at sizes 64,128, 3 trials, seed 1 and one worker. The
// head-to-head ms/trial column is wall clock, so it is blanked.
func goldenTables() string {
	ns := []int{64, 128}
	const trials, seed = 3, 1
	maxN := ns[len(ns)-1]
	a, b := Fig9(ns, trials, seed)
	h2h := HeadToHead(maxN, trials, seed)
	col := len(h2h.Header) - 1
	if h2h.Header[col] != "ms/trial" {
		panic("head-to-head: last column is " + h2h.Header[col])
	}
	for _, row := range h2h.Rows {
		row[col] = "-"
	}
	tables := []*stats.Table{
		Fig8(ns, trials, seed),
		a, b,
		Fig10(ns, trials, seed),
		Thm1(ns, trials, seed),
		Thm2(2, []int{2, 3, 4, 5}, seed),
		Ablation(ns, trials, seed),
		SDASHBehaviour(ns, trials, seed),
		Batch(maxN, []int{1, 2, 4, 8}, trials, seed),
		Topologies(maxN, trials, seed),
		OracleAblation(ns, trials, seed),
		Churn(maxN, 2*maxN, trials, seed),
		CutVertexStress(ns, trials, seed),
		Latency(ns, trials, seed),
		Scenarios(maxN, trials, seed),
		h2h,
	}
	var sb strings.Builder
	for _, t := range tables {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestTablesGolden pins every figure and table bit for bit against
// testdata/tables.golden. Regenerate with `go test -run TestTablesGolden
// -update` only when a table is meant to change, and say why.
func TestTablesGolden(t *testing.T) {
	defer func(old int) { Workers = old }(Workers)
	Workers = 1
	got := goldenTables()
	path := filepath.Join("testdata", "tables.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gl), len(wl)) {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("tables differ from %s at line %d:\ngot:  %q\nwant: %q", path, i+1, g, w)
				break
			}
		}
	}
}
