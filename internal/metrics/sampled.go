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
// One stretch read (AutoStretch.Checkpoint, behind dashd's
// GET /metrics?stretch=1 and every scenario checkpoint) is a single
// traversal: the diameter sources ride along with the stretch sources,
// only the stretch sources get distance rows, and the diameter is
// summarised from the kernel's eccentricities. Its results are bit for
// bit those of the stretch read followed by SampledDiameter.
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

// bfsScratch pools the multi-source BFS words, distance rows and
// eccentricities across measurements. server.MeasureStretch and
// large-scale scenario checkpoints measure repeatedly on 10⁵–10⁷-node
// graphs; without the pool every call allocates up to
// graph.MultiBFSWidth n-length rows that are garbage one call later. A
// scratch is taken per call and returned before it ends, so pooling does
// not change any concurrency contract.
type bfsScratch struct {
	ms      graph.MultiBFSScratch
	flat    []int32   // backing store of rows
	rows    [][]int32 // one distance row per source of a batch
	ecc     []int32   // one eccentricity per source of a sweep
	alive   []int     // alive-node buffer
	sources []int     // source-list buffer (AutoStretch.Checkpoint)
}

var bfsPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// sweep runs sources through graph.MultiBFSInto graph.MultiBFSWidth at
// a time and calls visit(i, row) in order for each of the first rowed
// sources, row holding the hop distances in g from sources[i] with
// BFSInto's conventions. The sources past rowed get no row. At most
// graph.MultiBFSWidth rows are held, so a row is valid only during its
// visit call. sweep returns every source's eccentricity (graph.
// MultiBFSInto's ecc), valid until the scratch is next used.
func (b *bfsScratch) sweep(g *graph.Graph, sources []int, rowed int, visit func(i int, row []int32)) []int32 {
	n := g.N()
	width := min(rowed, graph.MultiBFSWidth)
	if need := width * n; cap(b.flat) < need {
		// Growing rows get a quarter of headroom: dashd's graph gains
		// a node slot per join, and an exact fit would reallocate on
		// every read after one. A first allocation is exact.
		if cap(b.flat) > 0 {
			need += need / 4
		}
		b.flat = make([]int32, need)
	}
	b.rows = b.rows[:0]
	for j := 0; j < width; j++ {
		b.rows = append(b.rows, b.flat[j*n:(j+1)*n:(j+1)*n])
	}
	ecc := slices.Grow(b.ecc[:0], len(sources))[:len(sources)]
	b.ecc = ecc
	for lo := 0; lo < len(sources); lo += graph.MultiBFSWidth {
		hi := min(lo+graph.MultiBFSWidth, len(sources))
		rows := b.rows[:max(0, min(hi, rowed)-lo)]
		g.MultiBFSInto(sources[lo:hi], rows, ecc[lo:hi], &b.ms)
		for j, row := range rows {
			visit(lo+j, row)
		}
	}
	return ecc
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
	g.MultiBFSInto(st.sources, st.base, nil, &scratch.ms)
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
	scratch := bfsPool.Get().(*bfsScratch)
	defer bfsPool.Put(scratch)
	res, _ := st.measure(cur, st.sources, scratch)
	return res
}

// measure is Measure over one sweep of sources, which begin with
// st.sources; the sources after them are traversed without a row. It
// also returns every source's eccentricity, as sweep does.
func (st *SampledStretch) measure(cur *graph.Graph, sources []int, scratch *bfsScratch) (SampledResult, []int32) {
	res := SampledResult{Result: Result{Max: 1}, Sampled: true}
	var sum float64
	var perSourceMeans []float64
	ecc := scratch.sweep(cur, sources, len(st.sources), func(i int, dist []int32) {
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
	return res, ecc
}

// AutoStretch picks the measurement mode by size: graphs with fewer than
// threshold alive nodes at snapshot time get the exact all-pairs Stretch,
// larger ones the k-source SampledStretch. This is the policy the
// scenario engine applies at every trial start.
type AutoStretch struct {
	exact   *Stretch
	sampled *SampledStretch
	k       int // diameter sources per sampled Checkpoint
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
		return &AutoStretch{exact: NewStretch(g), k: k}
	}
	return &AutoStretch{sampled: NewSampledStretch(g, k, r), k: k}
}

// Sampled reports whether measurements are estimates (true) or exact.
func (a *AutoStretch) Sampled() bool { return a.sampled != nil }

// Measure measures cur in the mode chosen at construction. Exact results
// are wrapped in a SampledResult with Sampled=false and a collapsed CI.
func (a *AutoStretch) Measure(cur *graph.Graph) SampledResult {
	if a.exact != nil {
		return exactResult(a.exact.Measure(cur))
	}
	return a.sampled.Measure(cur)
}

// exactResult wraps an exact stretch result as a SampledResult.
func exactResult(r Result) SampledResult {
	return SampledResult{Result: r, MeanLo: r.Mean, MeanHi: r.Mean}
}

// Checkpoint is one stretch read: it returns what Measure(cur) and then
// SampledDiameter(cur, k, r) would, with the same draws from r, from a
// single sweep. In exact mode k is 0, so every alive node is a diameter
// source, and one all-alive sweep serves both. In sampled mode k is the
// construction's source count: the k diameter sources are drawn from r
// and appended to the stretch sources, and only the stretch sources get
// distance rows; the diameter needs just each source's eccentricity.
func (a *AutoStretch) Checkpoint(cur *graph.Graph, r *rng.RNG) (SampledResult, DiameterEstimate) {
	scratch := bfsPool.Get().(*bfsScratch)
	defer bfsPool.Put(scratch)
	alive := cur.AppendAliveNodes(scratch.alive[:0])
	scratch.alive = alive
	if a.exact != nil {
		res, ecc := a.exact.measure(cur, alive, scratch)
		return exactResult(res), estimate(ecc, true)
	}
	diam := pickSources(alive, a.k, r)
	sources := append(append(scratch.sources[:0], a.sampled.sources...), diam...)
	scratch.sources = sources
	res, ecc := a.sampled.measure(cur, sources, scratch)
	return res, estimate(ecc[len(a.sampled.sources):], len(diam) == cur.NumAlive())
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
	return estimate(scratch.sweep(g, sources, 0, nil), len(sources) == g.NumAlive())
}

// estimate summarises the eccentricities of alive diameter sources, in
// source order. It folds the int32s in place with stats.Summarize's
// arithmetic, in its order, and CI95's interval, so every field equals
// what summarising a float64 copy would give, without the copy or the
// sort for a median nothing reads.
func estimate(ecc []int32, exact bool) DiameterEstimate {
	est := DiameterEstimate{Exact: exact, Sources: len(ecc)}
	if len(ecc) == 0 {
		return est
	}
	sum := 0.0
	for _, e := range ecc {
		est.Diameter = max(est.Diameter, int(e))
		sum += float64(e)
	}
	est.MeanEcc = sum / float64(len(ecc))
	est.EccLo, est.EccHi = est.MeanEcc, est.MeanEcc
	if len(ecc) > 1 {
		ss := 0.0
		for _, e := range ecc {
			d := float64(e) - est.MeanEcc
			ss += d * d
		}
		std := math.Sqrt(ss / float64(len(ecc)-1))
		half := 1.96 * std / math.Sqrt(float64(len(ecc)))
		est.EccLo, est.EccHi = est.MeanEcc-half, est.MeanEcc+half
	}
	return est
}
