package metrics

// The measurements run their sources through graph.MultiBFSInto. The
// references below are the per-source implementations they replaced,
// one BFSInto per source; the new code must reproduce every field bit
// for bit, float sums included, on graphs that DASH churn has reshaped,
// grown past the snapshot and cut apart.

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
)

// refStretchMeasure is Stretch.Measure with one BFSInto per source.
func refStretchMeasure(base [][]int32, cur *graph.Graph) Result {
	res := Result{Max: 1}
	var sum float64
	alive := cur.AliveNodes()
	dist := make([]int32, cur.N())
	var queue []int32
	for _, u := range alive {
		if u >= len(base) {
			continue
		}
		queue = cur.BFSInto(u, dist, queue)
		for _, v := range alive {
			if v <= u || v >= len(base) {
				continue
			}
			orig := base[u][v]
			if orig <= 0 {
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
		}
	}
	if ok := res.Pairs - res.Disconnected; ok > 0 {
		res.Mean = sum / float64(ok)
	} else if res.Pairs == 0 {
		res.Mean = 1
	}
	return res
}

// refSampledMeasure is SampledStretch.Measure with one BFSInto per source.
func refSampledMeasure(st *SampledStretch, cur *graph.Graph) SampledResult {
	res := SampledResult{Result: Result{Max: 1}, Sampled: true}
	var sum float64
	var perSourceMeans []float64
	dist := make([]int32, cur.N())
	var queue []int32
	for i, src := range st.sources {
		if !cur.Alive(src) {
			continue
		}
		queue = cur.BFSInto(src, dist, queue)
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
	}
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

// refSampledDiameter is SampledDiameter with one BFSInto per source.
func refSampledDiameter(g *graph.Graph, k int, r *rng.RNG) DiameterEstimate {
	sources := pickSources(g.AliveNodes(), k, r)
	est := DiameterEstimate{Exact: len(sources) == g.NumAlive()}
	if len(sources) == 0 {
		return est
	}
	dist := make([]int32, g.N())
	var queue []int32
	eccs := make([]float64, 0, len(sources))
	for _, src := range sources {
		queue = g.BFSInto(src, dist, queue)
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
	}
	est.Sources = len(sources)
	s := stats.Summarize(eccs)
	est.MeanEcc = s.Mean
	est.EccLo, est.EccHi = s.CI95()
	return est
}

// sameBits reports whether two results are identical field by field,
// comparing floats by their bit patterns.
func sameBits(a, b SampledResult) bool {
	fa := []float64{a.Max, a.Mean, a.MeanLo, a.MeanHi}
	fb := []float64{b.Max, b.Mean, b.MeanLo, b.MeanHi}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Pairs == b.Pairs && a.Disconnected == b.Disconnected &&
		a.Sources == b.Sources && a.Sampled == b.Sampled
}

// sameDiameter reports whether two estimates are identical field by
// field, comparing floats by their bit patterns.
func sameDiameter(a, b DiameterEstimate) bool {
	return a.Diameter == b.Diameter && a.Sources == b.Sources && a.Exact == b.Exact &&
		math.Float64bits(a.MeanEcc) == math.Float64bits(b.MeanEcc) &&
		math.Float64bits(a.EccLo) == math.Float64bits(b.EccLo) &&
		math.Float64bits(a.EccHi) == math.Float64bits(b.EccHi)
}

// churn runs DASH kills and joins on g: every third op joins a node to
// two random alive nodes (so g.N() grows past any snapshot), the rest
// kill a random alive node and heal. The sampled sources in dead die
// first, so a measurement sees dead sources.
func churn(t *testing.T, g *graph.Graph, r *rng.RNG, ops int, dead []int) {
	t.Helper()
	s := core.NewState(g, r.Split())
	for _, v := range dead {
		if g.Alive(v) {
			s.DeleteAndHeal(v, core.DASH{})
		}
	}
	for i := 0; i < ops; i++ {
		alive := g.AliveNodes()
		if i%3 == 2 {
			s.Join([]int{alive[r.Intn(len(alive))], alive[r.Intn(len(alive))]}, r)
			continue
		}
		s.DeleteAndHeal(alive[r.Intn(len(alive))], core.DASH{})
	}
	if !g.Connected() {
		t.Fatalf("DASH churn disconnected the graph")
	}
}

func TestMultiBFSMeasurementsMatchReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		for _, cut := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/cut=%v", seed, cut), func(t *testing.T) {
				r := rng.New(seed)
				var g *graph.Graph
				if seed%2 == 1 {
					g = gen.BarabasiAlbert(260, 3, r.Split())
				} else {
					g = gen.WattsStrogatz(260, 4, 0.1, r.Split())
				}
				exact := NewStretch(g)
				few := NewSampledStretch(g, 24, r.Split())
				all := NewSampledStretch(g, 0, r.Split()) // every node: several 64-source batches
				for i, s := range few.sources {
					if want := g.BFS(s); !slices.Equal(few.base[i], want) {
						t.Fatalf("snapshot row of source %d differs from BFS", s)
					}
				}
				churn(t, g, r.Split(), 90, few.sources[:3])
				if cut {
					// Unhealed kills that strand an original node: some
					// surviving pairs now have no path.
					for _, u := range g.AliveNodes() {
						if u < len(exact.base) && g.Degree(u) > 0 {
							for _, v := range g.AppendNeighbors(nil, u) {
								g.RemoveNode(v)
							}
							break
						}
					}
					for i := 0; i < 20; i++ {
						if v := r.Intn(g.N()); g.Alive(v) {
							g.RemoveNode(v)
						}
					}
				}

				got, want := exact.Measure(g), refStretchMeasure(exact.base, g)
				if !sameBits(SampledResult{Result: got}, SampledResult{Result: want}) {
					t.Fatalf("Stretch.Measure = %+v, reference %+v", got, want)
				}
				if cut && want.Disconnected == 0 {
					t.Fatalf("the unhealed kills left every pair connected")
				}
				for name, st := range map[string]*SampledStretch{"few": few, "all": all} {
					if got, want := st.Measure(g), refSampledMeasure(st, g); !sameBits(got, want) {
						t.Fatalf("%s: SampledStretch.Measure = %+v, reference %+v", name, got, want)
					}
				}
				for _, k := range []int{0, 1, 16, 40, 100} {
					got := SampledDiameter(g, k, rng.New(seed+uint64(k)))
					want := refSampledDiameter(g, k, rng.New(seed+uint64(k)))
					if !sameDiameter(got, want) {
						t.Fatalf("k=%d: SampledDiameter = %+v, reference %+v", k, got, want)
					}
				}
				// A checkpoint is the stretch read and then the diameter
				// read, fused into one sweep. "all" makes every diameter
				// source a stretch source too. After "few"'s 24 stretch
				// sources, 40 diameter sources fill exactly one 64-source
				// batch and 100 spill into a second.
				autos := map[string]*AutoStretch{"exact": {exact: exact}}
				for _, k := range []int{0, 1, 16, 40, 100} {
					autos[fmt.Sprintf("few/k=%d", k)] = &AutoStretch{sampled: few, k: k}
					autos[fmt.Sprintf("all/k=%d", k)] = &AutoStretch{sampled: all, k: k}
				}
				for name, a := range autos {
					gotR, wantR := rng.New(seed+7), rng.New(seed+7)
					gotS, gotD := a.Checkpoint(g, gotR)
					var wantS SampledResult
					var wantD DiameterEstimate
					if a.exact != nil {
						wantS = exactResult(refStretchMeasure(exact.base, g))
						wantD = refSampledDiameter(g, 0, wantR)
					} else {
						wantS = refSampledMeasure(a.sampled, g)
						wantD = refSampledDiameter(g, a.k, wantR)
					}
					if !sameBits(gotS, wantS) {
						t.Fatalf("%s: Checkpoint stretch = %+v, reference %+v", name, gotS, wantS)
					}
					if !sameDiameter(gotD, wantD) {
						t.Fatalf("%s: Checkpoint diameter = %+v, reference %+v", name, gotD, wantD)
					}
					if *gotR != *wantR {
						t.Fatalf("%s: Checkpoint left the RNG at %+v, the reference at %+v", name, *gotR, *wantR)
					}
				}
			})
		}
	}
}

// Measurements draw their rows from one sync.Pool and only read their
// snapshots, so they are safe to run from several goroutines at once:
// under -race, concurrent reads must neither race nor change a result.
func TestConcurrentMeasurementsMatchSerial(t *testing.T) {
	r := rng.New(31)
	g := gen.BarabasiAlbert(200, 2, r.Split())
	exact := NewStretch(g)
	sampled := NewSampledStretch(g, 70, r.Split())
	churn(t, g, r.Split(), 60, nil)
	wantExact := exact.Measure(g)
	wantSampled := sampled.Measure(g)
	wantDiam := SampledDiameter(g, 70, rng.New(3))
	auto := &AutoStretch{sampled: sampled, k: 70}
	wantCkS, wantCkD := auto.Checkpoint(g, rng.New(4))
	const workers, reps = 4, 5
	var wg sync.WaitGroup
	errs := make(chan string, workers*reps*4)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				if got := exact.Measure(g); got != wantExact {
					errs <- fmt.Sprintf("Stretch.Measure = %+v, serial %+v", got, wantExact)
				}
				if got := sampled.Measure(g); !sameBits(got, wantSampled) {
					errs <- fmt.Sprintf("SampledStretch.Measure = %+v, serial %+v", got, wantSampled)
				}
				if got := SampledDiameter(g, 70, rng.New(3)); got != wantDiam {
					errs <- fmt.Sprintf("SampledDiameter = %+v, serial %+v", got, wantDiam)
				}
				if gotS, gotD := auto.Checkpoint(g, rng.New(4)); !sameBits(gotS, wantCkS) || gotD != wantCkD {
					errs <- fmt.Sprintf("Checkpoint = %+v, %+v, serial %+v, %+v", gotS, gotD, wantCkS, wantCkD)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
