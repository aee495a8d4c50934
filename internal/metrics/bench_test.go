package metrics

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

// BenchmarkSampledStretchRead is the work of one dashd stretch read at
// service scale: AutoStretch.Measure plus SampledDiameter with the
// default 16 sources, on a BA graph (n = 10⁵, m = 3) after 2·10⁴ DASH
// kills.
func BenchmarkSampledStretchRead(b *testing.B) {
	r := rng.New(1)
	g := gen.BarabasiAlbert(100_000, 3, r.Split())
	auto := NewAutoStretch(g, 0, 0, r.Split())
	s := core.NewState(g, r.Split())
	alive := g.AliveNodes()
	for i := 0; i < 20_000; i++ {
		j := r.Intn(len(alive))
		s.DeleteAndHeal(alive[j], core.DASH{})
		alive[j] = alive[len(alive)-1]
		alive = alive[:len(alive)-1]
	}
	b.ReportAllocs()
	for b.Loop() {
		auto.Measure(g)
		SampledDiameter(g, DefaultSampleSources, r)
	}
}

// BenchmarkStretchMeasure is one exact stretch checkpoint at the paper's
// size: Stretch.Measure on a BA graph (n = 256, m = 3) after 64 DASH
// kills.
func BenchmarkStretchMeasure(b *testing.B) {
	r := rng.New(2)
	g := gen.BarabasiAlbert(256, 3, r.Split())
	st := NewStretch(g)
	s := core.NewState(g, r.Split())
	for i := 0; i < 64; i++ {
		alive := g.AliveNodes()
		s.DeleteAndHeal(alive[r.Intn(len(alive))], core.DASH{})
	}
	b.ReportAllocs()
	for b.Loop() {
		st.Measure(g)
	}
}
