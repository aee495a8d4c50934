package dist

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
)

// measureProtocolRounds drives the same kill burst through the
// deterministic Sim in maximal parallel steps — every non-empty
// (receiver, sender) channel delivers one message per round — and
// returns the rounds to full quiescence. This is the asynchronous-
// rounds cost model the paper's latency bounds are stated in, and the
// measure in which epoch overlap is a genuine win: disjoint heals drain
// simultaneously, so the pipelined makespan approaches the deepest
// single epoch while the barrier path pays the sum of all of them.
func measureProtocolRounds(b *testing.B, serial bool, n, kills int) int {
	r := rng.New(99)
	g := gen.ConnectedErdosRenyi(n, 6.0/float64(n), r)
	ids := make([]uint64, n)
	for v := range ids {
		ids[v] = r.Uint64()
	}
	s := NewSim(g, ids, HealDASH)
	s.Network().SetSerial(serial)
	taken := make(map[int]bool, kills)
	for k := 0; k < kills; {
		v := r.Intn(n)
		if !taken[v] {
			taken[v] = true
			mustIssue(b, s.Network(), Op{Kind: OpKill, Victim: v})
			k++
		}
	}
	rounds := 0
	for {
		evs := s.Enabled()
		if len(evs) == 0 {
			return rounds
		}
		rounds++
		// Deliver the freeze-time head of every channel: per-sender FIFO
		// means later arrivals queue behind them, so this is exactly one
		// maximal parallel delivery step.
		for _, ev := range evs {
			s.Apply(ev)
		}
	}
}

// BenchmarkEpochOverlap records what the epoch pipeline buys over the
// barrier-synchronized path (SetSerial, where every epoch chains behind
// all prior traffic), on a burst of async kills against a sparse
// Erdős–Rényi graph.
//
// Two readings per (mode, workers) cell:
//
//   - ns/op: wall clock on the live network, whose worker pool has
//     GOMAXPROCS = workers goroutines. Read this with care: every
//     handler of every heal chain runs on those few workers, so
//     concurrent chains time-share them whichever mode is on, and a
//     message's cost is mostly the mailbox push and run-queue hop
//     around a short handler. Wall clock therefore under-reports the
//     overlap; it is kept here to pin that the pipelined scheduler, at
//     worst, costs nothing at several worker counts.
//
//   - protocol-rounds: makespan of the same burst in maximal parallel
//     delivery steps (the paper's asynchronous cost model), measured on
//     the deterministic Sim. This is where the overlap shows directly:
//     disjoint epochs drain simultaneously instead of queueing on the
//     barrier, roughly 2x fewer rounds at 8 overlapping kills and still
//     ~1.4x at 32 (conflict chains eat into it as the burst widens).
func BenchmarkEpochOverlap(b *testing.B) {
	const (
		n     = 2000
		kills = 64
	)
	for _, workers := range []int{2, 4} {
		for _, mode := range []string{"serial", "pipelined"} {
			b.Run(fmt.Sprintf("mode=%s/workers=%d", mode, workers), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(workers)
				defer runtime.GOMAXPROCS(prev)
				master := rng.New(1234)
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					r := master.Split()
					g := gen.ConnectedErdosRenyi(n, 6.0/float64(n), r)
					ids := make([]uint64, n)
					for v := range ids {
						ids[v] = r.Uint64()
					}
					nw := NewKind(g, ids, HealDASH)
					nw.SetSerial(mode == "serial")
					// Distinct victims drawn up front; conflicts between
					// overlapping regions are the scheduler's problem.
					victims := make([]int, 0, kills)
					taken := make(map[int]bool, kills)
					for len(victims) < kills {
						v := r.Intn(n)
						if !taken[v] {
							taken[v] = true
							victims = append(victims, v)
						}
					}
					b.StartTimer()

					for _, v := range victims {
						mustIssue(b, nw, Op{Kind: OpKill, Victim: v})
					}
					if err := nw.Drain(testTimeout); err != nil {
						b.Fatal(err)
					}

					b.StopTimer()
					nw.Close()
					b.StartTimer()
				}
				b.ReportMetric(float64(kills), "kills/op")
				b.ReportMetric(float64(measureProtocolRounds(b, mode == "serial", 600, 8)), "protocol-rounds-8kill")
				b.ReportMetric(float64(measureProtocolRounds(b, mode == "serial", 600, 32)), "protocol-rounds-32kill")
			})
		}
	}
}
