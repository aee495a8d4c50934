package graph_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// mapBall is the reference ball walk: a plain breadth-first search with
// a map of visited nodes, stopping once size nodes are collected.
func mapBall(g *graph.Graph, center, size int) []int {
	if size <= 0 || !g.Alive(center) {
		return nil
	}
	seen := map[int32]bool{int32(center): true}
	ball := []int{center}
	for head := 0; head < len(ball) && len(ball) < size; head++ {
		for _, u := range g.Neighbors(ball[head]) {
			if !seen[u] {
				seen[u] = true
				ball = append(ball, int(u))
				if len(ball) == size {
					break
				}
			}
		}
	}
	return ball
}

func TestBFSBall(t *testing.T) {
	g := gen.BarabasiAlbert(64, 3, rng.New(3))
	ball := g.BFSBall(new(graph.Region), 0, 10)
	if len(ball) != 10 || ball[0] != 0 {
		t.Fatalf("ball = %v, want 10 nodes around 0", ball)
	}
	seen := map[int]bool{}
	for _, v := range ball {
		if seen[v] {
			t.Fatalf("duplicate %d in ball %v", v, ball)
		}
		seen[v] = true
	}
	// Every non-center member must have a neighbor earlier in the ball
	// (BFS order ⇒ the ball is connected).
	for i, v := range ball[1:] {
		ok := false
		for _, u := range g.Neighbors(v) {
			for _, w := range ball[:i+1] {
				ok = ok || int(u) == w
			}
		}
		if !ok {
			t.Fatalf("ball member %d not attached to the prefix: %v", v, ball)
		}
	}

	// The whole component when size exceeds it; nil for dead centers.
	if got := g.BFSBall(new(graph.Region), 0, 10_000); len(got) != g.NumAlive() {
		t.Fatalf("oversized ball has %d nodes, want the whole component (%d)", len(got), g.NumAlive())
	}
	g.RemoveNode(5)
	if got := g.BFSBall(new(graph.Region), 5, 3); got != nil {
		t.Fatalf("ball around dead center = %v, want nil", got)
	}
	if got := g.BFSBall(new(graph.Region), 0, 0); got != nil {
		t.Fatalf("zero-size ball = %v, want nil", got)
	}
}

// TestBFSBallMatchesMapWalk holds the capped Region.Grow walk, with one
// Region reused across every draw, to the map-based reference: for
// random epicenters and sizes it must return the same nodes in the same
// order. The graphs cover dead slots left by healed deletions,
// components smaller than the requested size, and sizes past the alive
// count.
func TestBFSBallMatchesMapWalk(t *testing.T) {
	graphs := map[string]func(*rng.RNG) *graph.Graph{
		"BA":         func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(300, 3, r) },
		"sparse-ER":  func(r *rng.RNG) *graph.Graph { return gen.ErdosRenyi(300, 0.006, r) },
		"small-ring": func(*rng.RNG) *graph.Graph { return gen.Ring(12) },
	}
	for name, newGraph := range graphs {
		t.Run(name, func(t *testing.T) {
			s := core.NewState(newGraph(rng.New(5)), rng.New(6))
			var reg graph.Region
			r := rng.New(9)
			for i := 0; i < 300 && s.G.NumAlive() > 1; i++ {
				if i%7 == 3 {
					alive := s.G.AliveNodes()
					s.DeleteAndHeal(alive[r.Intn(len(alive))], core.DASH{})
				}
				alive := s.G.AliveNodes()
				size := r.Intn(len(alive) + 8)
				center := alive[r.Intn(len(alive))]
				got := s.G.BFSBall(&reg, center, size)
				if want := mapBall(s.G, center, size); !slices.Equal(got, want) {
					t.Fatalf("draw %d: BFSBall(%d) around %d = %v, map walk = %v", i, size, center, got, want)
				}
			}
		})
	}
}
