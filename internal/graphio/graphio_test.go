package graphio

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestDOTBasics(t *testing.T) {
	g := gen.Line(3)
	hl := graph.New(3)
	hl.AddEdge(1, 2)
	var b strings.Builder
	if err := DOT(&b, "demo graph", g, hl); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "graph demo_graph {") {
		t.Errorf("header wrong:\n%s", out)
	}
	if !strings.Contains(out, "n0 -- n1;") {
		t.Errorf("plain edge missing:\n%s", out)
	}
	if !strings.Contains(out, "n1 -- n2 [color=red penwidth=2];") {
		t.Errorf("highlighted edge missing:\n%s", out)
	}
}

func TestDOTNoHighlight(t *testing.T) {
	var b strings.Builder
	if err := DOT(&b, "", gen.Line(2), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "graph g {") {
		t.Error("empty name should default to g")
	}
	if strings.Contains(b.String(), "color=red") {
		t.Error("nil highlight should not color edges")
	}
}

func TestDOTOmitsDeadNodes(t *testing.T) {
	g := gen.Line(3)
	g.RemoveNode(2)
	var b strings.Builder
	if err := DOT(&b, "x", g, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "n2") {
		t.Error("dead node rendered")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(30)
		g := gen.RandomRecursiveTree(n, r)
		for i := 0; i < n/3; i++ {
			v := r.Intn(n)
			if g.Alive(v) && g.NumAlive() > 1 {
				g.RemoveNode(v)
			}
		}
		var b strings.Builder
		if err := WriteEdgeList(&b, g); err != nil {
			return false
		}
		back, err := ReadEdgeList(strings.NewReader(b.String()))
		if err != nil {
			return false
		}
		return g.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",                  // missing header
		"1 2\nn 3",          // edge before header
		"n 3\nn 3",          // duplicate header
		"n 3\n5 1",          // out of range
		"n 3\n1 1",          // self-loop
		"n 3\ndead 9",       // dead out of range
		"n -1",              // bad size
		"n 3\nbad edge foo", // unparseable
		"n 3x",              // numbers are whole fields: no trailing bytes,
		"n 3\n0 2x",         // no hex, no underscores, no fractions
		"n 3\n0x1 2",
		"n 3\n0 1_0",
		"n 3\n0 1.0",
		"n 3\n+ 1",
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c)); err == nil {
			t.Errorf("input %q should fail", c)
		}
	}
}

func TestReadEdgeListNodeCap(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("n 21999999900\n")); err == nil {
		t.Fatal("allocation-bomb header accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader(fmt.Sprintf("n %d\n", maxEdgeListNodes+1))); err == nil {
		t.Fatal("header above the cap accepted")
	}
}

func TestReadEdgeListSignedFields(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("n +3\n+0 2\n1 -0\n"))
	if err != nil || g.N() != 3 || g.NumEdges() != 2 {
		t.Fatalf("signed fields: %v, %v", g, err)
	}
}

func TestReadEdgeListSkipsComments(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# comment\nn 3\n\n0 1\n# more\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2", g.NumEdges())
	}
}
