package metrics

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
)

// damage deletes a few nodes and patches the survivors with an arbitrary
// edge so the graph stays connected but distances stretch.
func damage(g *graph.Graph, r *rng.RNG, kills int) {
	for i := 0; i < kills && g.NumAlive() > 3; i++ {
		alive := g.AliveNodes()
		v := alive[r.Intn(len(alive))]
		nbrs := g.AppendNeighbors(nil, v)
		g.RemoveNode(v)
		// Re-join the orphans in a line so connectivity survives.
		for j := 0; j+1 < len(nbrs); j++ {
			if !g.HasEdge(nbrs[j], nbrs[j+1]) {
				g.AddEdge(nbrs[j], nbrs[j+1])
			}
		}
	}
}

// With every alive node as a source, the sampled estimator sees every
// pair (in both orders), so Max and Mean must equal the exact values.
func TestSampledStretchAllSourcesMatchesExact(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed)
		g := gen.BarabasiAlbert(64, 2, r.Split())
		exact := NewStretch(g)
		sampled := NewSampledStretch(g, 0, r.Split()) // k<=0: all sources
		damage(g, r.Split(), 10)

		er := exact.Measure(g)
		sr := sampled.Measure(g)
		if sr.Max != er.Max {
			t.Fatalf("seed %d: sampled max %v, exact %v", seed, sr.Max, er.Max)
		}
		if math.Abs(sr.Mean-er.Mean) > 1e-12 {
			t.Fatalf("seed %d: sampled mean %v, exact %v", seed, sr.Mean, er.Mean)
		}
	}
}

// A k-source estimate only sees a subset of the pairs, so its maximum
// must bracket from below: 1 <= sampled.Max <= exact.Max.
func TestSampledStretchBracketsExact(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		r := rng.New(seed)
		g := gen.BarabasiAlbert(96, 2, r.Split())
		exact := NewStretch(g)
		sampled := NewSampledStretch(g, 8, r.Split())
		damage(g, r.Split(), 15)

		er := exact.Measure(g)
		sr := sampled.Measure(g)
		if sr.Max < 1 || sr.Max > er.Max {
			t.Fatalf("seed %d: sampled max %v outside [1, exact %v]", seed, sr.Max, er.Max)
		}
		if sr.MeanLo > sr.Mean || sr.MeanHi < sr.Mean {
			t.Fatalf("seed %d: CI [%v,%v] does not contain mean %v",
				seed, sr.MeanLo, sr.MeanHi, sr.Mean)
		}
		if !sr.Sampled {
			t.Fatalf("seed %d: SampledStretch result not flagged as sampled", seed)
		}
	}
}

// Below the threshold AutoStretch must produce exactly the result the
// exact all-pairs estimator produces (and say so).
func TestAutoStretchFallsBackToExact(t *testing.T) {
	r := rng.New(7)
	g := gen.BarabasiAlbert(48, 2, r.Split())
	auto := NewAutoStretch(g, 1000, 4, r.Split())
	if auto.Sampled() {
		t.Fatalf("n=48 under threshold 1000 should use the exact mode")
	}
	exact := NewStretch(g)
	damage(g, r.Split(), 8)

	ar := auto.Measure(g)
	er := exact.Measure(g)
	if ar.Sampled {
		t.Fatalf("exact-mode result flagged as sampled")
	}
	if ar.Max != er.Max || ar.Mean != er.Mean || ar.Pairs != er.Pairs {
		t.Fatalf("auto %+v != exact %+v", ar.Result, er)
	}
	if ar.MeanLo != ar.Mean || ar.MeanHi != ar.Mean {
		t.Fatalf("exact-mode CI should collapse to the mean, got [%v,%v]", ar.MeanLo, ar.MeanHi)
	}
}

// Above the threshold AutoStretch must switch to sampling.
func TestAutoStretchSamplesAboveThreshold(t *testing.T) {
	r := rng.New(8)
	g := gen.BarabasiAlbert(128, 2, r.Split())
	auto := NewAutoStretch(g, 64, 8, r.Split())
	if !auto.Sampled() {
		t.Fatalf("n=128 over threshold 64 should use the sampled mode")
	}
	res := auto.Measure(g)
	if !res.Sampled || res.Max != 1 {
		t.Fatalf("undamaged graph should measure identity stretch, got %+v", res)
	}
}

// SampledDiameter with all sources is the exact diameter; with fewer it
// is a lower bound.
func TestSampledDiameter(t *testing.T) {
	r := rng.New(9)
	g := gen.WattsStrogatz(80, 4, 0.05, r.Split())
	exactD := g.Diameter()

	all := SampledDiameter(g, 0, r.Split())
	if !all.Exact || all.Diameter != exactD {
		t.Fatalf("all-source estimate %+v, exact diameter %d", all, exactD)
	}
	few := SampledDiameter(g, 6, r.Split())
	if few.Exact {
		t.Fatalf("6-source estimate on 80 nodes claimed exactness")
	}
	if few.Diameter < 1 || few.Diameter > exactD {
		t.Fatalf("6-source diameter %d outside [1, %d]", few.Diameter, exactD)
	}
	if few.EccLo > few.MeanEcc || few.EccHi < few.MeanEcc {
		t.Fatalf("eccentricity CI [%v,%v] does not contain mean %v",
			few.EccLo, few.EccHi, few.MeanEcc)
	}
	if few.Sources != 6 {
		t.Fatalf("expected 6 sources, got %d", few.Sources)
	}
}

// Stretch line coverage for the sampled estimator under churn: a node
// joined after the snapshot must be skipped, a dead source must be
// skipped, and neither may panic.
func TestSampledStretchSurvivesChurn(t *testing.T) {
	r := rng.New(10)
	g := gen.BarabasiAlbert(32, 2, r.Split())
	sampled := NewSampledStretch(g, 5, r.Split())
	// Kill the first source.
	src := sampled.sources[0]
	nbrs := g.AppendNeighbors(nil, src)
	g.RemoveNode(src)
	for j := 0; j+1 < len(nbrs); j++ {
		if !g.HasEdge(nbrs[j], nbrs[j+1]) {
			g.AddEdge(nbrs[j], nbrs[j+1])
		}
	}
	// Grow the graph past the snapshot size.
	v := g.AddNode()
	g.AddEdge(v, nbrs[0])

	res := sampled.Measure(g)
	if res.Sources != 4 {
		t.Fatalf("expected 4 surviving sources, got %d", res.Sources)
	}
	if math.IsInf(res.Max, 1) {
		t.Fatalf("patched graph should not report disconnection: %+v", res)
	}
}

// TestSampledBFSScratchPooled pins the sync.Pool satellite: once the
// pool is warm, a SampledDiameter sweep over a large graph must not
// allocate its O(n) rows again — the per-call allocation budget
// stays far below 4 bytes per node.
func TestSampledBFSScratchPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const n = 50_000
	r := rng.New(5)
	g := gen.BarabasiAlbert(n, 3, r)
	SampledDiameter(g, 4, r) // warm the pool

	bench := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			SampledDiameter(g, 4, r)
		}
	})
	perOp := bench.AllocedBytesPerOp()
	if perOp > int64(n) {
		t.Fatalf("SampledDiameter allocates %d B/op on a %d-node graph; the BFS scratch is not being pooled", perOp, n)
	}

	st := NewSampledStretch(g, 4, r)
	st.Measure(g) // warm
	bench = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.Measure(g)
		}
	})
	if perOp := bench.AllocedBytesPerOp(); perOp > int64(n) {
		t.Fatalf("SampledStretch.Measure allocates %d B/op on a %d-node graph; the BFS scratch is not being pooled", perOp, n)
	}
}

// TestEstimateMatchesSummarize pins estimate's in-place fold to
// stats.Summarize plus CI95 over a float64 copy, bit for bit, on empty,
// one-, two- and many-source samples.
func TestEstimateMatchesSummarize(t *testing.T) {
	r := rng.New(5)
	many := make([]int32, 1000)
	for i := range many {
		many[i] = int32(r.Intn(40))
	}
	for _, ecc := range [][]int32{nil, {7}, {3, 8}, {4, 4}, many} {
		xs := make([]float64, len(ecc))
		want := DiameterEstimate{Exact: true, Sources: len(ecc)}
		for i, e := range ecc {
			xs[i] = float64(e)
			want.Diameter = max(want.Diameter, int(e))
		}
		if len(ecc) > 0 {
			s := stats.Summarize(xs)
			want.MeanEcc = s.Mean
			want.EccLo, want.EccHi = s.CI95()
		}
		if got := estimate(ecc, true); !sameDiameter(got, want) {
			t.Errorf("%d sources: estimate = %+v, Summarize gives %+v", len(ecc), got, want)
		}
	}
}
