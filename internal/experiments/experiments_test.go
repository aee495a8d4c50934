package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// Small sizes keep the test suite fast while still asserting the paper's
// qualitative shapes.
var testSizes = []int{32, 64, 128}

const testTrials = 5

// cell parses a numeric table cell.
func cell(t *testing.T, tab [][]string, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tab[row][col], err)
	}
	return v
}

func TestFig8Shape(t *testing.T) {
	tab := Fig8(testSizes, testTrials, 1)
	if len(tab.Rows) != len(testSizes) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(testSizes))
	}
	// Columns: n, GraphHeal, BinTreeHeal, DASH, SDASH, 2*log2(n).
	for i, n := range testSizes {
		graphHeal := cell(t, tab.Rows, i, 1)
		binTree := cell(t, tab.Rows, i, 2)
		dash := cell(t, tab.Rows, i, 3)
		sdash := cell(t, tab.Rows, i, 4)
		bound := 2 * math.Log2(float64(n))
		if dash > bound {
			t.Errorf("n=%d: DASH δ %.1f above bound %.1f", n, dash, bound)
		}
		if sdash > bound {
			t.Errorf("n=%d: SDASH δ %.1f above bound %.1f", n, sdash, bound)
		}
		if graphHeal <= dash {
			t.Errorf("n=%d: GraphHeal (%.1f) should be worse than DASH (%.1f)", n, graphHeal, dash)
		}
		if binTree < dash {
			t.Errorf("n=%d: BinTreeHeal (%.1f) should not beat DASH (%.1f)", n, binTree, dash)
		}
	}
	// GraphHeal's degree increase must grow sharply with n (super-log).
	if g0, g2 := cell(t, tab.Rows, 0, 1), cell(t, tab.Rows, 2, 1); g2 < 2*g0 {
		t.Errorf("GraphHeal not blowing up with n: %v -> %v", g0, g2)
	}
}

func TestFig9Shape(t *testing.T) {
	a, b := Fig9(testSizes, testTrials, 2)
	for i, n := range testSizes {
		for col := 1; col <= 4; col++ {
			idChanges := cell(t, a.Rows, i, col)
			if idChanges > math.Log2(float64(n)) {
				t.Errorf("n=%d healer %s: ID changes %.2f above log2(n)=%.2f",
					n, a.Header[col], idChanges, math.Log2(float64(n)))
			}
		}
		// Messages: DASH (col 3) should not exceed GraphHeal (col 1),
		// whose fatter nodes pay more per ID change.
		if dash, gh := cell(t, b.Rows, i, 3), cell(t, b.Rows, i, 1); dash > 1.5*gh {
			t.Errorf("n=%d: DASH messages (%.0f) unexpectedly dwarf GraphHeal (%.0f)", n, dash, gh)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	sizes := []int{32, 64}
	tab := Fig10(sizes, 3, 3)
	for i := range sizes {
		for col := 1; col <= 5; col++ {
			v := cell(t, tab.Rows, i, col)
			if v < 1 {
				t.Errorf("stretch below 1: %v (%s)", v, tab.Header[col])
			}
			if math.IsInf(v, 1) {
				t.Errorf("healer %s disconnected the graph", tab.Header[col])
			}
		}
	}
	// The naive GraphHeal (col 1) must beat plain DASH (col 3) on
	// stretch — the paper's headline Figure 10 ordering. (The SDASH
	// variants are compared at 30 trials in README's "Reproducing the
	// paper"; at these tiny sizes the difference is noise.)
	last := len(sizes) - 1
	if gh, dash := cell(t, tab.Rows, last, 1), cell(t, tab.Rows, last, 3); gh > dash {
		t.Errorf("GraphHeal stretch %.2f above DASH %.2f, Figure 10 shape broken", gh, dash)
	}
}

func TestThm2Shape(t *testing.T) {
	tab := Thm2(2, []int{2, 3}, 4)
	for i, wantDepth := range []int{2, 3} {
		line := cell(t, tab.Rows, i, 2)
		dash := cell(t, tab.Rows, i, 3)
		n := cell(t, tab.Rows, i, 1)
		if line < float64(wantDepth) {
			t.Errorf("depth %d: LineHeal δ %.0f below the forced bound", wantDepth, line)
		}
		if dash > 2*math.Log2(n) {
			t.Errorf("depth %d: DASH δ %.0f above its guarantee", wantDepth, dash)
		}
	}
}

func TestThm1Shape(t *testing.T) {
	tab := Thm1([]int{64}, 3, 5)
	row := tab.Rows[0]
	if len(row) != 7 {
		t.Fatalf("row = %v", row)
	}
	measuredDelta := cell(t, tab.Rows, 0, 1)
	boundDelta := cell(t, tab.Rows, 0, 2)
	if measuredDelta > boundDelta {
		t.Errorf("measured δ %.1f above bound %.1f", measuredDelta, boundDelta)
	}
	measuredMsgs := cell(t, tab.Rows, 0, 5)
	boundMsgs := cell(t, tab.Rows, 0, 6)
	if measuredMsgs > boundMsgs {
		t.Errorf("measured messages %.0f above bound %.0f", measuredMsgs, boundMsgs)
	}
}

func TestAblationShape(t *testing.T) {
	tab := Ablation([]int{64, 128}, 3, 6)
	for i := range tab.Rows {
		degreeHeal := cell(t, tab.Rows, i, 1)
		dash := cell(t, tab.Rows, i, 4)
		if degreeHeal <= dash {
			t.Errorf("row %d: component-blind DegreeHeal (%.1f) should leak degree vs DASH (%.1f)",
				i, degreeHeal, dash)
		}
	}
}

func TestSDASHBehaviourShape(t *testing.T) {
	tab := SDASHBehaviour([]int{64}, 3, 7)
	rate := cell(t, tab.Rows, 0, 1)
	if rate <= 0 || rate > 1 {
		t.Errorf("surrogation rate = %v, want in (0,1]", rate)
	}
	sdashStretch := cell(t, tab.Rows, 0, 4)
	if math.IsInf(sdashStretch, 1) {
		t.Error("SDASH disconnected the graph")
	}
}

func TestBatchShape(t *testing.T) {
	tab := Batch(48, []int{1, 2, 4}, 2, 8)
	for i := range tab.Rows {
		if tab.Rows[i][2] != "true" {
			t.Errorf("batch size row %d lost connectivity", i)
		}
	}
}

func TestTablesRender(t *testing.T) {
	tab := Fig8([]int{32}, 2, 9)
	s := tab.String()
	if !strings.Contains(s, "DASH") || !strings.Contains(s, "Figure 8") {
		t.Errorf("table rendering broken:\n%s", s)
	}
	if !strings.Contains(tab.CSV(), "n,GraphHeal") {
		t.Error("CSV header broken")
	}
}
