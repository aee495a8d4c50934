package graph_test

import (
	"fmt"
	"slices"
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

// kernelGraphs are the kernel tests' graphs: random, disconnected,
// grown past their first size and damaged, in a fixed order.
func kernelGraphs(r *rng.RNG) ([]string, map[string]*graph.Graph) {
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
	return []string{"ba", "ws", "union", "grown", "ba-damaged", "union-damaged"}, graphs
}

// kernelSources draws k sources of g from r; from three sources on, the
// last repeats the first and, when g has a dead node, the middle one is
// dead.
func kernelSources(g *graph.Graph, r *rng.RNG, k int) []int {
	sources := make([]int, k)
	for i := range sources {
		sources[i] = r.Intn(g.N())
	}
	if k >= 3 {
		sources[k-1] = sources[0]
		for v := 0; v < g.N(); v++ {
			if !g.Alive(v) {
				sources[k/2] = v
				break
			}
		}
	}
	return sources
}

// staleRows returns k rows of length n holding stale contents the
// kernel must overwrite.
func staleRows(k, n int) [][]int32 {
	rows := make([][]int32, k)
	for i := range rows {
		rows[i] = make([]int32, n)
		for v := range rows[i] {
			rows[i][v] = 7
		}
	}
	return rows
}

// TestMultiBFSMatchesBFSInto pins the bit-parallel kernel to BFSInto: on
// random, disconnected and damaged graphs, for source lists below, at
// and across the 64-source batch width, with dead and repeated sources,
// every row must equal the single-source BFS from that source.
func TestMultiBFSMatchesBFSInto(t *testing.T) {
	r := rng.New(16)
	names, graphs := kernelGraphs(r)
	var sc graph.MultiBFSScratch // reused across every call, as the sweeps do
	for _, name := range names {
		g := graphs[name]
		n := g.N()
		for _, k := range []int{0, 1, 63, 64, 65, 200} {
			// Stop at the first failing case: a broken kernel may not
			// terminate on the cases after it.
			if !t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				sources := kernelSources(g, r, k)
				rows := staleRows(k, n)
				g.MultiBFSInto(sources, rows, nil, &sc)
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

// With rows for only a prefix of the sources and an eccentricity slice,
// the kernel must fill exactly that prefix as BFSInto would and give
// every source the largest entry of its BFSInto row, whatever the
// prefix's length relative to the batch width. The graphs run in
// reverse, so the shared scratch also grows past a smaller graph.
func TestMultiBFSRowPrefixAndEccentricities(t *testing.T) {
	r := rng.New(17)
	names, graphs := kernelGraphs(r)
	slices.Reverse(names)
	var sc graph.MultiBFSScratch
	for _, name := range names {
		g := graphs[name]
		n := g.N()
		for _, tc := range []struct{ k, rowed int }{{1, 0}, {1, 1}, {32, 16}, {64, 63}, {80, 40}, {80, 64}, {150, 70}, {200, 0}} {
			if !t.Run(fmt.Sprintf("%s/k=%d/rows=%d", name, tc.k, tc.rowed), func(t *testing.T) {
				sources := kernelSources(g, r, tc.k)
				rows := staleRows(tc.rowed, n)
				ecc := make([]int32, tc.k)
				for i := range ecc {
					ecc[i] = 7
				}
				g.MultiBFSInto(sources, rows, ecc, &sc)
				want := make([]int32, n)
				for i, s := range sources {
					g.BFSInto(s, want, nil)
					if i < tc.rowed && !slices.Equal(rows[i], want) {
						t.Fatalf("source %d (#%d, alive=%v): row differs from BFSInto", s, i, g.Alive(s))
					}
					if e := slices.Max(want); ecc[i] != e {
						t.Fatalf("source %d (#%d, alive=%v): eccentricity %d, BFSInto row max %d", s, i, g.Alive(s), ecc[i], e)
					}
				}
			}) {
				return
			}
		}
	}
}

// A nil scratch, and rows or eccentricities that do not fit the
// sources, are the argument edge cases.
func TestMultiBFSArguments(t *testing.T) {
	g := gen.Line(5)
	rows := [][]int32{make([]int32, 5)}
	g.MultiBFSInto([]int{4}, rows, nil, nil)
	if rows[0][0] != 4 || rows[0][4] != 0 {
		t.Fatalf("nil scratch: row %v", rows[0])
	}
	for _, tc := range []struct {
		name    string
		sources []int
		rows    [][]int32
		ecc     []int32
	}{
		{"more rows than sources", []int{0}, [][]int32{rows[0], make([]int32, 5)}, nil},
		{"short row", []int{0}, [][]int32{make([]int32, 4)}, nil},
		{"fewer eccentricities than sources", []int{0, 1}, nil, make([]int32, 1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			g.MultiBFSInto(tc.sources, tc.rows, tc.ecc, nil)
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
