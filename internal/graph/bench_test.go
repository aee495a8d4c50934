package graph_test

// BenchmarkGraphOps is the graph-layer micro-suite: it pins the cost of
// the primitive operations (AddEdge, RemoveEdge, Neighbors, BFS,
// MultiBFSInto, AllDistances, Diameter, MaxDegreeNode) at several sizes so regressions in the
// adjacency representation are visible independent of the end-to-end
// figure benchmarks in the repository root.

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

var benchNs = []int{256, 1024, 4096}

// benchBA memoizes one BA instance per size so every benchmark in the
// suite measures against the identical topology.
var benchBA = map[int]*graph.Graph{}

func ba(n int) *graph.Graph {
	if g, ok := benchBA[n]; ok {
		return g
	}
	g := gen.BarabasiAlbert(n, 3, rng.New(uint64(n)))
	benchBA[n] = g
	return g
}

func BenchmarkGraphOpsAddRemoveEdge(b *testing.B) {
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := ba(n).Clone()
			r := rng.New(7)
			pairs := make([][2]int, 4096)
			for i := range pairs {
				u, v := r.Intn(n), r.Intn(n)
				if u == v {
					v = (v + 1) % n
				}
				pairs[i] = [2]int{u, v}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if g.AddEdge(p[0], p[1]) {
					g.RemoveEdge(p[0], p[1])
				}
			}
		})
	}
}

func BenchmarkGraphOpsNeighbors(b *testing.B) {
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := ba(n)
			b.ReportAllocs()
			b.ResetTimer()
			sum := 0
			for i := 0; i < b.N; i++ {
				for _, u := range g.Neighbors(i % n) {
					sum += int(u)
				}
			}
			sink = sum
		})
	}
}

func BenchmarkGraphOpsBFS(b *testing.B) {
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := ba(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = g.BFS(i % n)
			}
		})
	}
}

// BenchmarkMultiBFS is the stretch read's sweep at service scale: 16
// and 64 sources on a BA graph with n = 10⁵, as one MultiBFSInto call
// ("multi") and as one BFSInto per source ("single"). "k=32/fused" is
// the shape of one sampled stretch read: 32 sources, rows for the first
// 16, eccentricities for all.
func BenchmarkMultiBFS(b *testing.B) {
	const n = 100_000
	g := ba(n)
	b.Run("k=32/fused", func(b *testing.B) {
		r := rng.New(32)
		sources := make([]int, 32)
		rows := make([][]int32, 16)
		for i := range sources {
			sources[i] = r.Intn(n)
		}
		for i := range rows {
			rows[i] = make([]int32, n)
		}
		ecc := make([]int32, len(sources))
		var sc graph.MultiBFSScratch
		b.ReportAllocs()
		for b.Loop() {
			g.MultiBFSInto(sources, rows, ecc, &sc)
		}
	})
	for _, k := range []int{16, 64} {
		r := rng.New(uint64(k))
		sources := make([]int, k)
		rows := make([][]int32, k)
		for i := range sources {
			sources[i] = r.Intn(n)
			rows[i] = make([]int32, n)
		}
		b.Run(fmt.Sprintf("k=%d/multi", k), func(b *testing.B) {
			var sc graph.MultiBFSScratch
			b.ReportAllocs()
			for b.Loop() {
				g.MultiBFSInto(sources, rows, nil, &sc)
			}
		})
		b.Run(fmt.Sprintf("k=%d/single", k), func(b *testing.B) {
			var queue []int32
			b.ReportAllocs()
			for b.Loop() {
				for i, s := range sources {
					queue = g.BFSInto(s, rows[i], queue)
				}
			}
		})
	}
}

func BenchmarkGraphOpsAllDistances(b *testing.B) {
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := ba(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = g.AllDistances()
			}
		})
	}
}

func BenchmarkGraphOpsDiameter(b *testing.B) {
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := ba(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = g.Diameter()
			}
		})
	}
}

// BenchmarkGraphOpsClone copies a fresh BA graph, as the dist
// pipeline's mirror, the scenario differentials and core restore do.
func BenchmarkGraphOpsClone(b *testing.B) {
	for _, n := range []int{4096, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := ba(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkGraph = g.Clone()
			}
		})
	}
}

// BenchmarkGraphOpsMaxDegreeNode is one NeighborOfMax-style round per op
// on BA n=4096: pick the max-degree node, remove a random neighbour of
// it, and re-wire that neighbour's former neighbours in a line, as a
// heal would. When half the nodes are gone it starts over on a fresh
// clone, whose first pick rebuilds the index.
func BenchmarkGraphOpsMaxDegreeNode(b *testing.B) {
	const n = 4096
	base := ba(n)
	g := base.Clone()
	r := rng.New(11)
	var nbrs []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.NumAlive() < n/2 {
			b.StopTimer()
			g = base.Clone()
			b.StartTimer()
		}
		x := g.MaxDegreeNode()
		if nb := g.Neighbors(x); len(nb) > 0 {
			x = int(nb[r.Intn(len(nb))])
		}
		nbrs = g.AppendNeighbors(nbrs[:0], x)
		g.RemoveNode(x)
		for j := 1; j < len(nbrs); j++ {
			g.AddEdge(nbrs[j-1], nbrs[j])
		}
	}
}

var (
	sink      int
	sinkGraph *graph.Graph
)

// BenchmarkRegionComponents times one Region.Components search, the
// kernel under the batch rule, OracleReconnectSet, SDASHFull and the
// scenario connectivity check:
//   - split: a deep random tree of 10⁵ nodes (each node hangs off one
//     of the four before it) loses its first node from 1000 on with
//     three or more neighbours, and the seeds are those neighbours, one
//     per fragment: the search should cost the small fragments, not the
//     giant one;
//   - hub: the unhealed neighbours of BA n=8192's removed max-degree
//     node, all in one component, so a few hundred searches meet and
//     merge.
func BenchmarkRegionComponents(b *testing.B) {
	bench := func(b *testing.B, g *graph.Graph, seeds []int) {
		var reg graph.Region
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reg.Components(g, seeds)
		}
		b.ReportMetric(float64(len(reg.Nodes)), "reached")
	}
	b.Run("split", func(b *testing.B) {
		const n = 100_000
		g := graph.New(n)
		r := rng.New(3)
		for v := 1; v < n; v++ {
			g.AddEdge(v, max(0, v-1-r.Intn(4)))
		}
		x := 1000
		for g.Degree(x) < 3 {
			x++
		}
		seeds := g.AppendNeighbors(nil, x)
		g.RemoveNode(x)
		bench(b, g, seeds)
	})
	b.Run("hub", func(b *testing.B) {
		g := ba(8192).Clone()
		hub := g.MaxDegreeNode()
		seeds := g.AppendNeighbors(nil, hub)
		g.RemoveNode(hub)
		bench(b, g, seeds)
	})
}
