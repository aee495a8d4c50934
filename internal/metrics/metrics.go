// Package metrics computes the quantities the paper's evaluation reports:
// stretch (§4.6.1) — the worst pairwise dilation of distances in the
// healed network relative to the original network — and degree
// statistics.
package metrics

import (
	"math"

	"repro/internal/graph"
)

// Stretch measures path dilation against a snapshot of the original
// network taken at construction time. Measure only reads the snapshot
// and takes its BFS scratch from a pool, so one Stretch may be measured
// from several goroutines at once.
type Stretch struct {
	base [][]int32 // original all-pairs distances
}

// NewStretch snapshots g's all-pairs distances. It costs O(n·m) time and
// O(n²) memory, so callers bound n. The snapshot runs serially: Stretch
// is built once per experiment trial, and trials already fan out across
// every CPU — nesting the sweep's own fan-out inside the trial pool
// would oversubscribe the machine without any wall-clock gain.
func NewStretch(g *graph.Graph) *Stretch {
	return &Stretch{base: g.AllDistancesWorkers(1)}
}

// Result is a stretch measurement over the surviving node pairs.
type Result struct {
	Max          float64 // max over pairs of d_now/d_orig; +Inf if any pair separated
	Mean         float64 // mean ratio over connected surviving pairs
	Pairs        int     // surviving pairs considered
	Disconnected int     // surviving pairs with no current path
}

// Measure computes the stretch of cur: for every pair of alive nodes that
// were connected originally, the ratio of their current distance to their
// original distance. Pairs now disconnected contribute +Inf to Max and
// are tallied in Disconnected. A graph with fewer than two alive nodes
// yields the identity stretch 1.
func (st *Stretch) Measure(cur *graph.Graph) Result {
	res := Result{Max: 1}
	var sum float64
	scratch := bfsPool.Get().(*bfsScratch)
	defer bfsPool.Put(scratch)
	alive := cur.AppendAliveNodes(scratch.alive[:0])
	scratch.alive = alive
	sources := scratch.sources[:0]
	for _, u := range alive {
		if u < len(st.base) { // nodes joined after the snapshot have no original distance
			sources = append(sources, u)
		}
	}
	scratch.sources = sources
	scratch.sweep(cur, sources, func(i int, du []int32) {
		u := sources[i]
		for _, v := range alive {
			if v <= u || v >= len(st.base) {
				continue
			}
			orig := st.base[u][v]
			if orig <= 0 {
				continue // originally disconnected or identical
			}
			res.Pairs++
			if du[v] < 0 {
				res.Disconnected++
				res.Max = math.Inf(1)
				continue
			}
			ratio := float64(du[v]) / float64(orig)
			if ratio > res.Max {
				res.Max = ratio
			}
			sum += ratio
		}
	})
	if ok := res.Pairs - res.Disconnected; ok > 0 {
		res.Mean = sum / float64(ok)
	} else if res.Pairs == 0 {
		res.Mean = 1
	}
	return res
}

// DegreeStats summarizes the alive degree distribution of g.
type DegreeStats struct {
	Max  int
	Mean float64
}

// Degrees computes degree statistics over alive nodes.
func Degrees(g *graph.Graph) DegreeStats {
	ds := DegreeStats{}
	alive := g.AliveNodes()
	if len(alive) == 0 {
		return ds
	}
	sum := 0
	for _, v := range alive {
		d := g.Degree(v)
		sum += d
		if d > ds.Max {
			ds.Max = d
		}
	}
	ds.Mean = float64(sum) / float64(len(alive))
	return ds
}
