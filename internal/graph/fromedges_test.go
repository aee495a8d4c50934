package graph

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/rng"
)

// randomEdges returns a random simple edge list on n nodes as a flat
// endpoint list, in lexicographic order (u < v) or shuffled with random
// orientation.
func randomEdges(r *rng.RNG, n, m int, shuffled bool) []int32 {
	seen := map[[2]int32]bool{}
	var pairs [][2]int32
	for tries := 0; len(pairs) < m && tries < 20*m; tries++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if !seen[[2]int32{u, v}] {
			seen[[2]int32{u, v}] = true
			pairs = append(pairs, [2]int32{u, v})
		}
	}
	if shuffled {
		r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		for i := range pairs {
			if r.Intn(2) == 0 {
				pairs[i][0], pairs[i][1] = pairs[i][1], pairs[i][0]
			}
		}
	} else {
		slices.SortFunc(pairs, func(a, b [2]int32) int {
			if a[0] != b[0] {
				return int(a[0] - b[0])
			}
			return int(a[1] - b[1])
		})
	}
	edges := make([]int32, 0, 2*len(pairs))
	for _, p := range pairs {
		edges = append(edges, p[0], p[1])
	}
	return edges
}

// addEdgeBuilt is the reference: New plus one AddEdge per listed edge.
func addEdgeBuilt(n int, edges []int32) *Graph {
	g := New(n)
	for i := 0; i < len(edges); i += 2 {
		g.AddEdge(int(edges[i]), int(edges[i+1]))
	}
	return g
}

func TestFromEdgesMatchesAddEdge(t *testing.T) {
	if g := FromEdges(0, nil); !g.Equal(New(0)) {
		t.Fatal("FromEdges(0, nil) differs from New(0)")
	}
	if g := FromEdges(5, nil); !g.Equal(New(5)) {
		t.Fatal("FromEdges(5, nil) differs from New(5)")
	}
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		n := 2 + r.Intn(150)
		m := r.Intn(4 * n)
		for _, shuffled := range []bool{false, true} {
			edges := randomEdges(r, n, m, shuffled)
			got, want := FromEdges(n, edges), addEdgeBuilt(n, edges)
			if !got.Equal(want) {
				t.Fatalf("seed %d shuffled=%v: FromEdges(%d nodes, %d edges) differs from the AddEdge-built graph",
					seed, shuffled, n, len(edges)/2)
			}
			if got.NumEdges() != len(edges)/2 || got.NumAlive() != n {
				t.Fatalf("seed %d: %d edges, %d alive; want %d, %d",
					seed, got.NumEdges(), got.NumAlive(), len(edges)/2, n)
			}
		}
	}
}

func TestFromEdgesPanics(t *testing.T) {
	for _, c := range []struct {
		name  string
		n     int
		edges []int32
	}{
		{"self-loop", 4, []int32{0, 1, 2, 2}},
		{"duplicate", 4, []int32{0, 1, 1, 2, 0, 1}},
		{"reversed duplicate", 4, []int32{3, 1, 0, 2, 1, 3}},
		{"negative endpoint", 4, []int32{0, -1}},
		{"endpoint past n", 4, []int32{0, 1, 2, 4}},
		{"odd length", 4, []int32{0, 1, 2}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: FromEdges(%d, %v) did not panic", c.name, c.n, c.edges)
				}
			}()
			FromEdges(c.n, c.edges)
		}()
	}
}

// TestTryFromEdgesNamesTheOffender pins which edge TryFromEdges blames:
// the first edge failing the first check that fails, and for duplicates
// the first edge repeating an earlier one, as AddEdge in list order
// would find it.
func TestTryFromEdgesNamesTheOffender(t *testing.T) {
	for _, c := range []struct {
		name   string
		n      int
		edges  []int32
		edge   int
		reason string
	}{
		{"endpoint past n", 4, []int32{0, 1, 1, 1, 2, 4}, 2, "node out of range"},
		{"negative endpoint", 4, []int32{0, 1, -1, 2}, 1, "node out of range"},
		{"self-loop", 4, []int32{0, 1, 2, 2, 3, 3}, 1, "self-loop"},
		{"duplicate", 5, []int32{0, 1, 3, 4, 1, 2, 4, 3, 0, 1}, 3, "duplicate edge"},
		{"reversed duplicate", 4, []int32{3, 1, 0, 2, 1, 3}, 2, "duplicate edge"},
	} {
		g, err := TryFromEdges(c.n, c.edges)
		var ee *EdgeError
		if g != nil || !errors.As(err, &ee) {
			t.Errorf("%s: TryFromEdges = %v, %v; want an *EdgeError", c.name, g, err)
			continue
		}
		if ee.Edge != c.edge || ee.Reason != c.reason ||
			ee.U != c.edges[2*c.edge] || ee.V != c.edges[2*c.edge+1] {
			t.Errorf("%s: %+v, want edge %d (%s)", c.name, *ee, c.edge, c.reason)
		}
	}
	if _, err := TryFromEdges(4, []int32{0, 1, 2}); err == nil {
		t.Error("odd-length list accepted")
	}
	if g, err := TryFromEdges(4, []int32{0, 1, 2, 3}); err != nil || g.NumEdges() != 2 {
		t.Errorf("valid list: %v, %v", g, err)
	}
}

// growEveryRow adds edges at every node until its degree is past the
// room its packed row started with, drawing partners from r. The same
// seed makes the same calls on any graph with the same edges.
func growEveryRow(g *Graph, r *rng.RNG) {
	for v := 0; v < g.N(); v++ {
		want := min(rowCap(g.Degree(v))+1, g.N()-1)
		for g.Degree(v) < want {
			if w := r.Intn(g.N()); w != v {
				g.AddEdge(v, w)
			}
		}
	}
}

// addEdgeCopy is the reference copy of an AddEdge-built graph with no
// dead nodes: the same graph rebuilt one AddEdge at a time, so it never
// goes through Clone.
func addEdgeCopy(g *Graph) *Graph {
	var edges []int32
	for _, e := range g.Edges() {
		edges = append(edges, int32(e[0]), int32(e[1]))
	}
	return addEdgeBuilt(g.N(), edges)
}

// TestPackedRowsDoNotAlias grows every row of a bulk-built graph and of
// clones past its packed room, and checks each against AddEdge-built
// references: a row that wrote past its window into a neighbour's, or a
// clone that shared storage with its source, shows up as a difference.
func TestPackedRowsDoNotAlias(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		n := 8 + r.Intn(120)
		edges := randomEdges(r, n, r.Intn(3*n), seed%2 == 0)
		growSeed := r.Uint64()

		g, ref := FromEdges(n, edges), addEdgeBuilt(n, edges)
		c, refC := g.Clone(), addEdgeBuilt(n, edges)
		growEveryRow(g, rng.New(growSeed))
		growEveryRow(ref, rng.New(growSeed))
		if !g.Equal(ref) {
			t.Fatalf("seed %d: bulk-built graph differs from the reference after growing every row", seed)
		}
		if !c.Equal(refC) {
			t.Fatalf("seed %d: growing the source changed its clone", seed)
		}
		cc, refCC := g.Clone(), addEdgeCopy(ref)
		growEveryRow(c, rng.New(growSeed+1))
		growEveryRow(refC, rng.New(growSeed+1))
		if !c.Equal(refC) {
			t.Fatalf("seed %d: clone differs from the reference after growing every row", seed)
		}
		if !g.Equal(ref) {
			t.Fatalf("seed %d: growing a clone changed its source", seed)
		}
		growEveryRow(cc, rng.New(growSeed+2))
		growEveryRow(refCC, rng.New(growSeed+2))
		if !cc.Equal(refCC) {
			t.Fatalf("seed %d: clone of a grown graph differs from the reference after growing every row", seed)
		}
	}
}
