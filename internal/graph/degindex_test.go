package graph_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// scanMaxDegreeNode is the reference MaxDegreeNode: the naive O(n) scan
// for the alive node with the largest degree, smallest index on ties.
func scanMaxDegreeNode(g *graph.Graph) int {
	best, bestDeg := -1, -1
	for v := 0; v < g.N(); v++ {
		if g.Alive(v) && g.Degree(v) > bestDeg {
			best, bestDeg = v, g.Degree(v)
		}
	}
	return best
}

// checkMax fails the test unless MaxDegreeNode agrees with the scan.
func checkMax(t *testing.T, g *graph.Graph, step string) {
	t.Helper()
	if got, want := g.MaxDegreeNode(), scanMaxDegreeNode(g); got != want {
		t.Fatalf("%s: MaxDegreeNode = %d (deg %d), scan %d (deg %d)",
			step, got, g.Degree(got), want, g.Degree(want))
	}
}

// TestMaxDegreeIndexBasics hand-drives the graph's index through the
// mutation shapes it must survive: lazy degree drops, noted rises, ties
// broken by index, dead-node discard, and join growth.
func TestMaxDegreeIndexBasics(t *testing.T) {
	g := graph.New(5)
	// Star around 2, plus the 0-1 edge: degrees 2,2,4,1,1.
	for _, v := range []int{0, 1, 3, 4} {
		g.AddEdge(2, v)
	}
	g.AddEdge(0, 1)
	if got := g.MaxDegreeNode(); got != 2 {
		t.Fatalf("MaxDegreeNode = %d, want hub 2", got)
	}

	// Kill the hub: degrees drop to 1,1,-,0,0; the index must demote
	// lazily and land on the tie-break winner.
	g.RemoveNode(2)
	if got := g.MaxDegreeNode(); got != 0 {
		t.Fatalf("after hub death MaxDegreeNode = %d, want 0 (deg 1, smallest index)", got)
	}

	// Raise 4 above everyone.
	g.AddEdge(4, 0)
	g.AddEdge(4, 1)
	g.AddEdge(4, 3)
	if got := g.MaxDegreeNode(); got != 4 {
		t.Fatalf("after rises MaxDegreeNode = %d, want 4", got)
	}

	// A joining node that out-degrees the field.
	v := g.AddNode()
	for _, u := range []int{0, 1, 3, 4} {
		g.AddEdge(v, u)
	}
	checkMax(t, g, "after join")

	// An edge drop demotes the newcomer to a tie that 4 wins on index.
	g.RemoveEdge(v, 0)
	if got := g.MaxDegreeNode(); got != 4 {
		t.Fatalf("after edge drop MaxDegreeNode = %d, want 4", got)
	}

	// Empty the graph.
	for _, u := range g.AliveNodes() {
		g.RemoveNode(u)
	}
	if got := g.MaxDegreeNode(); got != -1 {
		t.Fatalf("empty MaxDegreeNode = %d, want -1", got)
	}
	if got := graph.New(0).MaxDegreeNode(); got != -1 {
		t.Fatalf("New(0).MaxDegreeNode = %d, want -1", got)
	}
}

// TestMaxDegreeIndexRandomized cross-checks MaxDegreeNode against the
// scan over random edge churn where drops arrive only through node
// removals.
func TestMaxDegreeIndexRandomized(t *testing.T) {
	r := rng.New(99)
	g := gen.BarabasiAlbert(200, 3, r)
	for step := 0; g.NumAlive() > 0; step++ {
		checkMax(t, g, "randomized")
		alive := g.AliveNodes()
		switch r.Intn(3) {
		case 0: // add a random edge
			if len(alive) >= 2 {
				u, v := alive[r.Intn(len(alive))], alive[r.Intn(len(alive))]
				if u != v {
					g.AddEdge(u, v)
				}
			}
		default: // remove a random node
			g.RemoveNode(alive[r.Intn(len(alive))])
		}
	}
}

// hubStars builds a hub-heavy graph: four stars of 60 leaves each, hubs
// 0..3 joined in a path, so that the maximum sits on a few nodes whose
// degrees the churn below keeps raising and cutting.
func hubStars(_ *rng.RNG) *graph.Graph {
	const hubs, leaves = 4, 60
	g := graph.New(hubs * (leaves + 1))
	for h := 0; h < hubs; h++ {
		for l := 0; l < leaves; l++ {
			g.AddEdge(h, hubs+h*leaves+l)
		}
		if h > 0 {
			g.AddEdge(h-1, h)
		}
	}
	return g
}

// churnStep applies one random mutation to g: an edge insert (half the
// time onto one of a few favoured nodes, so that rises make new maxima),
// an edge removal, a node removal (sometimes the current maximum's
// neighbour, NeighborOfMax-style), or a join onto up to four nodes.
func churnStep(g *graph.Graph, r *rng.RNG) {
	alive := g.AliveNodes()
	if len(alive) < 2 {
		g.AddNode()
		return
	}
	pick := func() int { return alive[r.Intn(len(alive))] }
	switch r.Intn(6) {
	case 0, 1:
		u, v := pick(), pick()
		if r.Intn(2) == 0 {
			u = alive[r.Intn(min(8, len(alive)))]
		}
		if u != v {
			g.AddEdge(u, v)
		}
	case 2:
		u := pick()
		if nb := g.Neighbors(u); len(nb) > 0 {
			g.RemoveEdge(u, int(nb[r.Intn(len(nb))]))
		}
	case 3:
		victim := pick()
		if hub := g.MaxDegreeNode(); r.Intn(2) == 0 && g.Degree(hub) > 0 {
			nb := g.Neighbors(hub)
			victim = int(nb[r.Intn(len(nb))])
		}
		g.RemoveNode(victim)
	case 4:
		v := g.AddNode()
		for k := 1 + r.Intn(4); k > 0; k-- {
			g.AddEdge(v, pick())
		}
	case 5:
		g.RemoveNode(pick())
	}
}

// TestMaxDegreeNodeMatchesScan checks the graph-owned index against the
// reference scan after every step of random AddEdge, RemoveEdge,
// RemoveNode and AddNode interleavings, on BA graphs and on hub-heavy
// stars. Each run also clones the indexed graph and churns both copies
// apart, and hands the graph to a Sharded for two barrier rounds of
// locked inserts and removals before churning it on.
func TestMaxDegreeNodeMatchesScan(t *testing.T) {
	shapes := []struct {
		name string
		make func(*rng.RNG) *graph.Graph
	}{
		{"ba", func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(240, 3, r) }},
		{"stars", hubStars},
	}
	for _, sh := range shapes {
		for seed := uint64(1); seed <= 4; seed++ {
			r := rng.New(seed)
			g := sh.make(r)
			churn := func(g *graph.Graph, what string, steps int) {
				for i := 0; i < steps; i++ {
					churnStep(g, r)
					checkMax(t, g, sh.name+"/"+what)
				}
			}
			churn(g, "plain", 300)

			c := g.Clone()
			churn(c, "clone", 150)
			churn(g, "clone source", 150)

			// NewSharded drops the index, so a query before the first
			// Sync rebuilds it from the adjacency the locked inserts
			// left; after that, only Sync's drop keeps it honest.
			s := graph.NewSharded(g, 4)
			for round := 0; round < 2; round++ {
				alive := g.AliveNodes()
				for i := 0; i < 60; i++ {
					if round == 0 && i == 30 {
						checkMax(t, g, sh.name+"/sharded before Sync")
					}
					u, v := alive[r.Intn(min(8, len(alive)))], alive[r.Intn(len(alive))]
					if u != v && g.Alive(u) && g.Alive(v) {
						s.AddEdge(u, v)
					}
					if i%10 == 9 {
						if x := alive[r.Intn(len(alive))]; g.Alive(x) {
							s.RemoveNode(x)
						}
					}
				}
				s.Sync()
				checkMax(t, g, sh.name+"/sharded")
			}
			churn(g, "after sharded", 150)
		}
	}
}
