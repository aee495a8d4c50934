package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestArticulationPointsLine(t *testing.T) {
	g := New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	aps := g.ArticulationPoints()
	want := []int{1, 2, 3}
	if len(aps) != len(want) {
		t.Fatalf("APs = %v, want %v", aps, want)
	}
	for i := range want {
		if aps[i] != want[i] {
			t.Fatalf("APs = %v, want %v", aps, want)
		}
	}
}

func TestArticulationPointsCycleHasNone(t *testing.T) {
	g := New(5)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, (i+1)%5)
	}
	if aps := g.ArticulationPoints(); len(aps) != 0 {
		t.Fatalf("cycle has no APs, got %v", aps)
	}
}

func TestArticulationPointsStar(t *testing.T) {
	g := New(5)
	for i := 1; i < 5; i++ {
		g.AddEdge(0, i)
	}
	aps := g.ArticulationPoints()
	if len(aps) != 1 || aps[0] != 0 {
		t.Fatalf("star APs = %v, want [0]", aps)
	}
}

func TestArticulationPointsTwoTriangles(t *testing.T) {
	// Two triangles sharing node 2: node 2 is the only AP.
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 2)
	aps := g.ArticulationPoints()
	if len(aps) != 1 || aps[0] != 2 {
		t.Fatalf("APs = %v, want [2]", aps)
	}
}

func TestArticulationIgnoresDeadNodes(t *testing.T) {
	g := New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	g.RemoveNode(4)
	aps := g.ArticulationPoints()
	if len(aps) != 2 || aps[0] != 1 || aps[1] != 2 {
		t.Fatalf("APs = %v, want [1 2]", aps)
	}
}

// Property: a node is an articulation point iff removing it increases the
// number of components (checked brute-force on random graphs).
func TestArticulationPointsMatchBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(20)
		g := New(n)
		for i := 0; i < 2*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		aps := map[int]bool{}
		for _, v := range g.ArticulationPoints() {
			aps[v] = true
		}
		base := g.NumComponents()
		for _, v := range g.AliveNodes() {
			if g.Degree(v) == 0 {
				continue // isolated nodes are never articulation points
			}
			c := g.Clone()
			c.RemoveNode(v)
			// v's component survives (v had neighbors); v is an
			// articulation point iff the survivors split beyond base.
			brute := c.NumComponents() > base
			if brute != aps[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
