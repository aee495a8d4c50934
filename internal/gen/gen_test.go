package gen

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestBarabasiAlbertShape(t *testing.T) {
	r := rng.New(1)
	n, m := 200, 3
	g := BarabasiAlbert(n, m, r)
	if g.N() != n {
		t.Fatalf("N = %d, want %d", g.N(), n)
	}
	if !g.Connected() {
		t.Fatal("BA graph must be connected")
	}
	seed := m + 1
	wantEdges := seed*(seed-1)/2 + (n-seed)*m
	if g.NumEdges() != wantEdges {
		t.Errorf("edges = %d, want %d", g.NumEdges(), wantEdges)
	}
	// Every non-seed node has degree >= m.
	for v := seed; v < n; v++ {
		if g.Degree(v) < m {
			t.Errorf("node %d has degree %d < m", v, g.Degree(v))
		}
	}
}

func TestBarabasiAlbertIsHubby(t *testing.T) {
	// Preferential attachment should produce hubs far above the mean
	// degree — a sanity check that attachment really is degree biased.
	r := rng.New(7)
	g := BarabasiAlbert(600, 2, r)
	mean := 2 * float64(g.NumEdges()) / float64(g.N())
	if max := float64(g.MaxDegree()); max < 3*mean {
		t.Errorf("max degree %v not hub-like vs mean %v", max, mean)
	}
}

func TestBarabasiAlbertDeterminism(t *testing.T) {
	a := BarabasiAlbert(100, 2, rng.New(5))
	b := BarabasiAlbert(100, 2, rng.New(5))
	if !a.Equal(b) {
		t.Fatal("same seed must give the same BA graph")
	}
}

func TestBarabasiAlbertPanics(t *testing.T) {
	for _, c := range []struct{ n, m int }{{1, 1}, {5, 0}, {5, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BarabasiAlbert(%d,%d) did not panic", c.n, c.m)
				}
			}()
			BarabasiAlbert(c.n, c.m, rng.New(1))
		}()
	}
}

func TestKaryTreeSize(t *testing.T) {
	cases := []struct{ k, d, want int }{
		{2, 0, 1}, {2, 1, 3}, {2, 3, 15}, {3, 2, 13}, {4, 2, 21}, {1, 4, 5},
	}
	for _, c := range cases {
		if got := KaryTreeSize(c.k, c.d); got != c.want {
			t.Errorf("KaryTreeSize(%d,%d) = %d, want %d", c.k, c.d, got, c.want)
		}
	}
}

func TestCompleteKaryTree(t *testing.T) {
	tr := CompleteKaryTree(3, 2)
	g := tr.G
	if g.N() != 13 {
		t.Fatalf("N = %d, want 13", g.N())
	}
	if !g.Connected() || !g.IsForest() {
		t.Fatal("k-ary tree must be a connected forest")
	}
	if tr.Parent[0] != -1 || tr.Level[0] != 0 {
		t.Error("root metadata wrong")
	}
	leaves := 0
	for v := 0; v < g.N(); v++ {
		switch {
		case tr.Level[v] == 2:
			leaves++
			if len(tr.Kids[v]) != 0 {
				t.Errorf("leaf %d has children", v)
			}
		default:
			if len(tr.Kids[v]) != 3 {
				t.Errorf("internal node %d has %d children, want 3", v, len(tr.Kids[v]))
			}
		}
		if v != 0 {
			if tr.Level[v] != tr.Level[tr.Parent[v]]+1 {
				t.Errorf("level of %d inconsistent with parent", v)
			}
			if !g.HasEdge(v, tr.Parent[v]) {
				t.Errorf("missing parent edge for %d", v)
			}
		}
	}
	if leaves != 9 {
		t.Errorf("leaves = %d, want 9", leaves)
	}
}

func TestCompleteKaryTreeDegenerate(t *testing.T) {
	tr := CompleteKaryTree(2, 0)
	if tr.G.N() != 1 || tr.G.NumEdges() != 0 {
		t.Error("depth-0 tree should be a single node")
	}
	unary := CompleteKaryTree(1, 4)
	if unary.G.N() != 5 || unary.G.Diameter() != 4 {
		t.Error("arity-1 tree should be a path")
	}
}

func TestRandomRecursiveTreeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(60)
		g := RandomRecursiveTree(n, r)
		return g.Connected() && g.IsForest() && g.NumEdges() == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	r := rng.New(3)
	if g := ErdosRenyi(10, 0, r); g.NumEdges() != 0 {
		t.Error("p=0 should give no edges")
	}
	if g := ErdosRenyi(10, 1, r); g.NumEdges() != 45 {
		t.Error("p=1 should give a clique")
	}
}

func TestConnectedErdosRenyi(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(40)
		g := ConnectedErdosRenyi(n, 0.05, r)
		return g.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTopologies(t *testing.T) {
	if g := Line(5); g.NumEdges() != 4 || g.Diameter() != 4 {
		t.Error("line wrong")
	}
	if g := Ring(5); g.NumEdges() != 5 || g.Degree(0) != 2 {
		t.Error("ring wrong")
	}
	if g := Ring(2); g.NumEdges() != 1 {
		t.Error("tiny ring should degrade to a line")
	}
	if g := Star(5); g.Degree(0) != 4 || g.NumEdges() != 4 {
		t.Error("star wrong")
	}
	if g := Grid(3, 4); g.NumEdges() != 3*3+2*4 || !g.Connected() {
		t.Error("grid wrong")
	}
	if g := Complete(6); g.NumEdges() != 15 || g.Diameter() != 1 {
		t.Error("clique wrong")
	}
}

// BenchmarkBarabasiAlbert times one graph per iteration at m=3; n=10⁵
// is the graph every churn workload generates per round.
func BenchmarkBarabasiAlbert(b *testing.B) {
	for _, n := range []int{1000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BarabasiAlbert(n, 3, rng.New(uint64(i)))
			}
		})
	}
}
