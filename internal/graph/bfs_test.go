package graph_test

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// union returns the disjoint union of gs, node indices offset in order.
func union(gs ...*graph.Graph) *graph.Graph {
	n := 0
	for _, g := range gs {
		n += g.N()
	}
	u := graph.New(n)
	off := 0
	for _, g := range gs {
		for _, e := range g.Edges() {
			u.AddEdge(off+e[0], off+e[1])
		}
		off += g.N()
	}
	return u
}

// killSome deletes about frac of g's nodes, drawn from r.
func killSome(g *graph.Graph, r *rng.RNG, frac float64) {
	for i := 0; i < int(frac*float64(g.N())); i++ {
		if v := r.Intn(g.N()); g.Alive(v) {
			g.RemoveNode(v)
		}
	}
}

// TestMultiBFSMatchesBFSInto pins the bit-parallel kernel to BFSInto: on
// random, disconnected and damaged graphs, for source lists below, at
// and across the 64-source batch width, with dead and repeated sources,
// every row must equal the single-source BFS from that source.
func TestMultiBFSMatchesBFSInto(t *testing.T) {
	r := rng.New(16)
	grown := gen.BarabasiAlbert(150, 2, r.Split())
	for i := 0; i < 20; i++ {
		v := grown.AddNode()
		grown.AddEdge(v, r.Intn(v))
	}
	graphs := map[string]*graph.Graph{
		"ba":    gen.BarabasiAlbert(300, 3, r.Split()),
		"ws":    gen.WattsStrogatz(300, 4, 0.1, r.Split()),
		"union": union(gen.BarabasiAlbert(100, 2, r.Split()), gen.Line(90), gen.WattsStrogatz(80, 4, 0.2, r.Split()), graph.New(5)),
		"grown": grown,
	}
	graphs["ba-damaged"] = graphs["ba"].Clone()
	killSome(graphs["ba-damaged"], r.Split(), 0.3)
	graphs["union-damaged"] = graphs["union"].Clone()
	killSome(graphs["union-damaged"], r.Split(), 0.15)

	var sc graph.MultiBFSScratch // reused across every call, as the sweeps do
	for _, name := range []string{"ba", "ws", "union", "grown", "ba-damaged", "union-damaged"} {
		g := graphs[name]
		n := g.N()
		dead := -1
		for v := 0; v < n; v++ {
			if !g.Alive(v) {
				dead = v
				break
			}
		}
		for _, k := range []int{0, 1, 63, 64, 65, 200} {
			// Stop at the first failing case: a broken kernel may not
			// terminate on the cases after it.
			if !t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				sources := make([]int, k)
				for i := range sources {
					sources[i] = r.Intn(n)
				}
				if k >= 3 {
					sources[k-1] = sources[0] // a repeated source
					if dead >= 0 {
						sources[k/2] = dead
					}
				}
				rows := make([][]int32, k)
				for i := range rows {
					rows[i] = make([]int32, n)
					for v := range rows[i] {
						rows[i][v] = 7 // stale contents the kernel must overwrite
					}
				}
				g.MultiBFSInto(sources, rows, &sc)
				want := make([]int32, n)
				for i, s := range sources {
					g.BFSInto(s, want, nil)
					for v := range want {
						if rows[i][v] != want[v] {
							t.Fatalf("source %d (#%d, alive=%v): row[%d] = %d, BFSInto %d",
								s, i, g.Alive(s), v, rows[i][v], want[v])
						}
					}
				}
			}) {
				return
			}
		}
	}
}

// A nil scratch and mismatched rows are the two argument edge cases.
func TestMultiBFSArguments(t *testing.T) {
	g := gen.Line(5)
	rows := [][]int32{make([]int32, 5)}
	g.MultiBFSInto([]int{4}, rows, nil)
	if rows[0][0] != 4 || rows[0][4] != 0 {
		t.Fatalf("nil scratch: row %v", rows[0])
	}
	for _, tc := range []struct {
		name    string
		sources []int
		rows    [][]int32
	}{
		{"fewer rows than sources", []int{0, 1}, rows},
		{"short row", []int{0}, [][]int32{make([]int32, 4)}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			g.MultiBFSInto(tc.sources, tc.rows, nil)
		}()
	}
}

// The all-sources sweeps batch their sources through the kernel; on a
// damaged disconnected graph of more than two batches, every row and the
// diameter must match single-source BFS at any fan-out.
func TestSweepsMatchBFS(t *testing.T) {
	r := rng.New(61)
	g := union(gen.BarabasiAlbert(90, 2, r.Split()), gen.Line(50), gen.Ring(40))
	killSome(g, r.Split(), 0.1)
	diam := int32(0)
	want := make([][]int32, g.N())
	for v := range want {
		want[v] = g.BFS(v)
		for _, d := range want[v] {
			diam = max(diam, d)
		}
	}
	for _, workers := range []int{1, 2, 3} {
		got := g.AllDistancesWorkers(workers)
		for v := range want {
			for u := range want[v] {
				if got[v][u] != want[v][u] {
					t.Fatalf("workers=%d: AllDistances[%d][%d] = %d, BFS %d", workers, v, u, got[v][u], want[v][u])
				}
			}
		}
	}
	if d := g.Diameter(); d != int(diam) {
		t.Fatalf("Diameter = %d, BFS sweep %d", d, diam)
	}
}
