package metrics

// Sampled metrics: the exact stretch and diameter computations cost a BFS
// per node (O(n·m)), which is fine at the paper's sizes (n ≤ a few
// thousand) and hopeless at the scenario engine's (n = 10⁵–10⁶). The
// estimators here sweep k random sources instead — O(k·m), run through
// graph.MultiBFSInto 64 sources per traversal — and report
// normal-approximation confidence intervals over the per-source
// statistics (stats.Summary.CI95), so large-scale scenario checkpoints
// state their uncertainty instead of hiding it.
//
// The estimates are conservative in a useful direction: a k-source
// stretch maximum and a k-source diameter are both lower bounds on their
// exact counterparts (every sampled pair is a real pair), and they equal
// the exact values when the sources cover every alive node — which is
// exactly what the tests pin down.

import (
	"math"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
)

// bfsScratch pools the multi-source BFS words and distance rows across
// measurements. server.MeasureStretch and large-scale scenario
// checkpoints call the samplers repeatedly on 10⁵–10⁷-node graphs;
// without the pool every call allocates up to graph.MultiBFSWidth
// n-length rows that are garbage one call later. A scratch is taken per
// call and returned before it ends, so pooling does not change any
// concurrency contract.
type bfsScratch struct {
	ms      graph.MultiBFSScratch
	flat    []int32   // backing store of rows
	rows    [][]int32 // one distance row per source of a batch
	alive   []int     // alive-node buffer
	sources []int     // source-list buffer (Stretch.Measure)
}

var bfsPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// sweep calls visit(i, row) for every source in order, row holding the
// hop distances in g from sources[i] with BFSInto's conventions. The
// sources run through graph.MultiBFSInto graph.MultiBFSWidth at a time,
// so at most that many rows are held; a row is valid only during its
// visit call.
func (b *bfsScratch) sweep(g *graph.Graph, sources []int, visit func(i int, row []int32)) {
	n := g.N()
	width := min(len(sources), graph.MultiBFSWidth)
	if cap(b.flat) < width*n {
		b.flat = make([]int32, width*n)
	}
	b.rows = b.rows[:0]
	for j := 0; j < width; j++ {
		b.rows = append(b.rows, b.flat[j*n:(j+1)*n:(j+1)*n])
	}
	for lo := 0; lo < len(sources); lo += width {
		batch := sources[lo:min(lo+width, len(sources))]
		rows := b.rows[:len(batch)]
		g.MultiBFSInto(batch, rows, &b.ms)
		for j, row := range rows {
			visit(lo+j, row)
		}
	}
}

// DefaultSampleThreshold is the alive-node count at or above which the
// scenario engine switches from exact to sampled metrics.
const DefaultSampleThreshold = 4096

// DefaultSampleSources is the number of random BFS sources a sampled
// measurement uses when the caller does not override it.
const DefaultSampleSources = 16

// SampledResult is a stretch measurement estimated from k BFS sources.
type SampledResult struct {
	Result
	// MeanLo/MeanHi is the 95% confidence interval for Mean, over the
	// per-source mean ratios. Equal to Mean when only one source
	// contributed (or the measurement was exact).
	MeanLo, MeanHi float64
	// Sources is how many BFS sources contributed surviving pairs.
	Sources int
	// Sampled reports whether this measurement was estimated (true) or
	// exact (false; AutoStretch below the threshold).
	Sampled bool
}

// SampledStretch measures path dilation like Stretch, but only over pairs
// (s, v) whose first endpoint is one of k random sources fixed at
// construction time. Snapshot cost is O(k·m) time and O(k·n) memory.
// Like Stretch, it may be measured from several goroutines at once.
type SampledStretch struct {
	sources []int
	base    [][]int32 // one original-distance row per source
}

// NewSampledStretch snapshots the distances from k random alive sources
// of g (all alive nodes when k <= 0 or k exceeds the alive count — the
// estimate is then exact). Sources are drawn without replacement from r.
func NewSampledStretch(g *graph.Graph, k int, r *rng.RNG) *SampledStretch {
	st := &SampledStretch{sources: sampleAlive(g, k, r)}
	n := g.N()
	flat := make([]int32, len(st.sources)*n)
	st.base = make([][]int32, len(st.sources))
	for i := range st.base {
		st.base[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	scratch := bfsPool.Get().(*bfsScratch)
	defer bfsPool.Put(scratch)
	g.MultiBFSInto(st.sources, st.base, &scratch.ms)
	return st
}

// sampleAlive draws min(k, alive) distinct alive nodes of g uniformly
// without replacement (partial Fisher–Yates), returned sorted. k <= 0
// selects every alive node.
func sampleAlive(g *graph.Graph, k int, r *rng.RNG) []int {
	return pickSources(g.AliveNodes(), k, r)
}

// pickSources partially shuffles alive in place and returns the k
// chosen sources (sorted), or all of alive when k <= 0 or k exceeds its
// length.
func pickSources(alive []int, k int, r *rng.RNG) []int {
	if k <= 0 || k >= len(alive) {
		return alive
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(len(alive)-i)
		alive[i], alive[j] = alive[j], alive[i]
	}
	picked := alive[:k]
	slices.Sort(picked)
	return picked
}

// Measure estimates the stretch of cur over the sampled source rows.
// Sources that have since died are skipped; nodes that joined after the
// snapshot have no original distance and are skipped, exactly as in
// Stretch.Measure. Pairs now disconnected contribute +Inf to Max.
func (st *SampledStretch) Measure(cur *graph.Graph) SampledResult {
	res := SampledResult{Result: Result{Max: 1}, Sampled: true}
	var sum float64
	var perSourceMeans []float64
	scratch := bfsPool.Get().(*bfsScratch)
	defer bfsPool.Put(scratch)
	scratch.sweep(cur, st.sources, func(i int, dist []int32) {
		src := st.sources[i]
		if !cur.Alive(src) {
			return
		}
		var srcSum float64
		srcPairs := 0
		for v, orig := range st.base[i] {
			if v == src || orig <= 0 || !cur.Alive(v) {
				continue
			}
			res.Pairs++
			if dist[v] < 0 {
				res.Disconnected++
				res.Max = math.Inf(1)
				continue
			}
			ratio := float64(dist[v]) / float64(orig)
			if ratio > res.Max {
				res.Max = ratio
			}
			sum += ratio
			srcSum += ratio
			srcPairs++
		}
		if srcPairs > 0 {
			res.Sources++
			perSourceMeans = append(perSourceMeans, srcSum/float64(srcPairs))
		}
	})
	if ok := res.Pairs - res.Disconnected; ok > 0 {
		res.Mean = sum / float64(ok)
	} else if res.Pairs == 0 {
		res.Mean = 1
	}
	res.MeanLo, res.MeanHi = res.Mean, res.Mean
	if len(perSourceMeans) > 1 {
		res.MeanLo, res.MeanHi = stats.Summarize(perSourceMeans).CI95()
	}
	return res
}

// AutoStretch picks the measurement mode by size: graphs with fewer than
// threshold alive nodes at snapshot time get the exact all-pairs Stretch,
// larger ones the k-source SampledStretch. This is the policy the
// scenario engine applies at every trial start.
type AutoStretch struct {
	exact   *Stretch
	sampled *SampledStretch
}

// NewAutoStretch snapshots g with the mode the threshold selects.
// threshold <= 0 means DefaultSampleThreshold; k <= 0 means
// DefaultSampleSources.
func NewAutoStretch(g *graph.Graph, threshold, k int, r *rng.RNG) *AutoStretch {
	if threshold <= 0 {
		threshold = DefaultSampleThreshold
	}
	if k <= 0 {
		k = DefaultSampleSources
	}
	if g.NumAlive() < threshold {
		return &AutoStretch{exact: NewStretch(g)}
	}
	return &AutoStretch{sampled: NewSampledStretch(g, k, r)}
}

// Sampled reports whether measurements are estimates (true) or exact.
func (a *AutoStretch) Sampled() bool { return a.sampled != nil }

// Measure measures cur in the mode chosen at construction. Exact results
// are wrapped in a SampledResult with Sampled=false and a collapsed CI.
func (a *AutoStretch) Measure(cur *graph.Graph) SampledResult {
	if a.exact != nil {
		r := a.exact.Measure(cur)
		return SampledResult{Result: r, MeanLo: r.Mean, MeanHi: r.Mean}
	}
	return a.sampled.Measure(cur)
}

// DiameterEstimate is a k-source approximation of the diameter of the
// alive part of a graph.
type DiameterEstimate struct {
	// Diameter is the largest finite eccentricity among the sources — a
	// lower bound on the true diameter, equal to it when Exact.
	Diameter int
	// MeanEcc is the mean source eccentricity with its 95% CI; for a
	// rough radius/diameter picture without the full O(n·m) sweep.
	MeanEcc      float64
	EccLo, EccHi float64
	// Sources is how many alive sources were swept.
	Sources int
	// Exact is true when every alive node served as a source.
	Exact bool
}

// SampledDiameter estimates g's diameter from k random alive sources
// drawn from r (all alive nodes when k <= 0 or k exceeds the alive
// count, making the result exact). Disconnected pairs are ignored, as in
// Diameter.
func SampledDiameter(g *graph.Graph, k int, r *rng.RNG) DiameterEstimate {
	scratch := bfsPool.Get().(*bfsScratch)
	defer bfsPool.Put(scratch)
	scratch.alive = g.AppendAliveNodes(scratch.alive[:0])
	sources := pickSources(scratch.alive, k, r)
	est := DiameterEstimate{Exact: len(sources) == g.NumAlive()}
	if len(sources) == 0 {
		return est
	}
	eccs := make([]float64, 0, len(sources))
	scratch.sweep(g, sources, func(_ int, dist []int32) {
		ecc := int32(0)
		for _, d := range dist {
			if d > ecc {
				ecc = d
			}
		}
		if int(ecc) > est.Diameter {
			est.Diameter = int(ecc)
		}
		eccs = append(eccs, float64(ecc))
	})
	est.Sources = len(sources)
	s := stats.Summarize(eccs)
	est.MeanEcc = s.Mean
	est.EccLo, est.EccHi = s.CI95()
	return est
}
