package graphio

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
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
