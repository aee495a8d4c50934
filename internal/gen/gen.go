// Package gen constructs the graph families used by the paper's
// experiments and proofs:
//
//   - Barabási–Albert preferential-attachment graphs — the random
//     power-law networks of §4.1 (the paper cites Barabási [3,4]);
//   - complete k-ary trees — the (M+2)-ary lower-bound construction of §3;
//   - plus a collection of standard topologies (random trees, Erdős–Rényi,
//     rings, lines, stars, grids, cliques) used for testing and as extra
//     initial topologies, since DASH's guarantees are topology-independent.
package gen

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// CheckBarabasiAlbert reports whether BarabasiAlbert(n, m) is defined:
// it needs n >= 2 and 1 <= m < n, so that the seed clique of m+1 nodes
// fits. Commands call it to refuse a bad size before generating.
func CheckBarabasiAlbert(n, m int) error {
	if !validBarabasiAlbert(n, m) {
		return fmt.Errorf("gen: invalid BarabasiAlbert(n=%d, m=%d): need n ≥ 2 and 1 ≤ m < n", n, m)
	}
	return nil
}

// validBarabasiAlbert is CheckBarabasiAlbert's condition. BarabasiAlbert
// tests it without calling CheckBarabasiAlbert: that call's change to the
// generator's code layout moved the churn-sharded benchmark's peak RSS.
func validBarabasiAlbert(n, m int) bool { return n >= 2 && m >= 1 && m < n }

// BarabasiAlbert generates a preferential-attachment graph with n nodes in
// which every node added after the seed clique attaches m edges to
// existing nodes chosen with probability proportional to their degree
// (the Barabási–Albert "rich get richer" model, which yields a power-law
// degree distribution). The first m+1 nodes form a clique so every early
// node starts with positive degree. The result is always connected.
//
// It panics unless CheckBarabasiAlbert(n, m) passes.
func BarabasiAlbert(n, m int, r *rng.RNG) *graph.Graph {
	if !validBarabasiAlbert(n, m) {
		panic(fmt.Sprintf("gen: invalid BarabasiAlbert(n=%d, m=%d)", n, m))
	}
	seed := m + 1
	// edges lists every edge as two endpoints, so it holds each node once
	// per incidence and a uniform draw from it is a degree-proportional
	// draw over nodes. graph.FromEdges then builds the graph from it.
	edges := make([]int32, 0, seed*(seed-1)+2*(n-seed)*m)
	for u := 0; u < seed; u++ {
		for v := u + 1; v < seed; v++ {
			edges = append(edges, int32(u), int32(v))
		}
	}
	targets := make([]int32, 0, m)
	for v := seed; v < n; v++ {
		targets = targets[:0]
		// Sample m distinct existing nodes preferentially. Rejection is
		// cheap: each retry hits an already-picked node with probability
		// at most (m-1)/m of the mass only in degenerate graphs.
		for len(targets) < m {
			t := edges[r.Intn(len(edges))]
			if !slices.Contains(targets, t) {
				targets = append(targets, t)
			}
		}
		// Deterministic edge order (sorted targets). Every row then
		// arrives ascending: v's targets first, later nodes after.
		slices.Sort(targets)
		for _, t := range targets {
			edges = append(edges, int32(v), t)
		}
	}
	return graph.FromEdges(n, edges)
}

// KaryTree is a complete k-ary tree together with its shape metadata,
// which the LEVELATTACK adversary needs (levels, parents, children).
type KaryTree struct {
	G      *graph.Graph
	Arity  int
	Depth  int     // levels are numbered 0 (root) .. Depth
	Parent []int   // Parent[root] = -1
	Level  []int   // level of each node
	Kids   [][]int // original children of each node, sorted
}

// KaryTreeSize returns the number of nodes in a complete k-ary tree of the
// given depth: 1 + k + k² + … + k^depth.
func KaryTreeSize(arity, depth int) int {
	size, pow := 0, 1
	for l := 0; l <= depth; l++ {
		size += pow
		pow *= arity
	}
	return size
}

// CompleteKaryTree builds a complete tree in which every internal node has
// exactly arity children and all leaves are at the given depth. Nodes are
// numbered in breadth-first order (root = 0).
//
// It panics unless arity >= 1 and depth >= 0.
func CompleteKaryTree(arity, depth int) *KaryTree {
	if arity < 1 || depth < 0 {
		panic(fmt.Sprintf("gen: invalid CompleteKaryTree(arity=%d, depth=%d)", arity, depth))
	}
	n := KaryTreeSize(arity, depth)
	t := &KaryTree{
		G:      graph.New(n),
		Arity:  arity,
		Depth:  depth,
		Parent: make([]int, n),
		Level:  make([]int, n),
		Kids:   make([][]int, n),
	}
	t.Parent[0] = -1
	next := 1
	for v := 0; v < n && next < n; v++ {
		for c := 0; c < arity && next < n; c++ {
			t.G.AddEdge(v, next)
			t.Parent[next] = v
			t.Level[next] = t.Level[v] + 1
			t.Kids[v] = append(t.Kids[v], next)
			next++
		}
	}
	return t
}

// RandomRecursiveTree returns a uniformly grown recursive tree on n nodes:
// node i (i >= 1) attaches to a uniformly random node in [0, i). Always
// connected and acyclic.
func RandomRecursiveTree(n int, r *rng.RNG) *graph.Graph {
	if n < 1 {
		panic("gen: RandomRecursiveTree needs n >= 1")
	}
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, r.Intn(i))
	}
	return g
}

// ErdosRenyi returns a G(n, p) random graph. It is not guaranteed to be
// connected; see ConnectedErdosRenyi.
func ErdosRenyi(n int, p float64, r *rng.RNG) *graph.Graph {
	if n < 0 || p < 0 || p > 1 {
		panic(fmt.Sprintf("gen: invalid ErdosRenyi(n=%d, p=%v)", n, p))
	}
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// ConnectedErdosRenyi returns a G(n, p) sample conditioned on
// connectivity by planting a random recursive tree first and then adding
// each remaining pair independently with probability p.
func ConnectedErdosRenyi(n int, p float64, r *rng.RNG) *graph.Graph {
	if n < 1 {
		panic("gen: ConnectedErdosRenyi needs n >= 1")
	}
	g := RandomRecursiveTree(n, r)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) && r.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// Line returns a path graph 0-1-…-(n-1).
func Line(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Ring returns a cycle on n nodes (n >= 3), or a line for smaller n.
func Ring(n int) *graph.Graph {
	g := Line(n)
	if n >= 3 {
		g.AddEdge(n-1, 0)
	}
	return g
}

// Star returns a star with node 0 at the center.
func Star(n int) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// Grid returns a rows×cols 4-neighbor mesh. Node (r,c) has index r*cols+c.
func Grid(rows, cols int) *graph.Graph {
	if rows < 0 || cols < 0 {
		panic("gen: negative grid dimensions")
	}
	g := graph.New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				g.AddEdge(v, v+1)
			}
			if r+1 < rows {
				g.AddEdge(v, v+cols)
			}
		}
	}
	return g
}

// Complete returns the clique K_n.
func Complete(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}
