package core

// BenchmarkShardedCommit* is the scaling micro-suite behind the CI
// bench gate: a sustained kill workload on a Barabási–Albert graph,
// committed through the sharded scheduler at 1/2/4/8 workers, with the
// sequential engine as the Serial baseline. On a single-core runner the
// W>1 variants measure scheduling overhead rather than speedup — the
// multi-core scaling curves come from CI's shard-scaling job — but the
// gate still catches regressions in the admission path and commit
// bodies, which dominate at every core count.

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
)

const benchShardedN = 8192

// benchAlive is a swap-delete victim pool, so victim picks stay O(1)
// and uniform without importing the scenario package (import cycle).
type benchAlive struct {
	nodes []int
	r     *rng.RNG
}

func newBenchAlive(n int, r *rng.RNG) *benchAlive {
	a := &benchAlive{nodes: make([]int, n), r: r}
	for v := range a.nodes {
		a.nodes[v] = v
	}
	return a
}

func (a *benchAlive) pick() int {
	j := a.r.Intn(len(a.nodes))
	v := a.nodes[j]
	a.nodes[j] = a.nodes[len(a.nodes)-1]
	a.nodes = a.nodes[:len(a.nodes)-1]
	return v
}

func BenchmarkShardedCommitSerial(b *testing.B) {
	r := rng.New(7)
	var st *State
	var alive *benchAlive
	reset := func() {
		st = NewState(gen.BarabasiAlbert(benchShardedN, 3, r.Split()), r.Split())
		alive = newBenchAlive(benchShardedN, rng.New(99))
	}
	reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(alive.nodes) < benchShardedN/2 {
			b.StopTimer()
			reset()
			b.StartTimer()
		}
		st.DeleteAndHeal(alive.pick(), DASH{})
	}
}

func benchShardedCommit(b *testing.B, workers, shards int) {
	r := rng.New(7)
	var (
		ss    *ShardedState
		sched *ShardScheduler
		alive *benchAlive
	)
	reset := func() {
		if sched != nil {
			sched.Close()
		}
		st := NewState(gen.BarabasiAlbert(benchShardedN, 3, r.Split()), r.Split())
		ss = NewShardedState(st, shards)
		sched = NewShardScheduler(ss, DASH{}, workers)
		alive = newBenchAlive(benchShardedN, rng.New(99))
	}
	reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(alive.nodes) < benchShardedN/2 {
			b.StopTimer()
			reset()
			b.StartTimer()
		}
		sched.Kill(alive.pick(), nil)
	}
	sched.Barrier()
	b.StopTimer()
	sched.Close()
}

func BenchmarkShardedCommitW1(b *testing.B) { benchShardedCommit(b, 1, 8) }
func BenchmarkShardedCommitW2(b *testing.B) { benchShardedCommit(b, 2, 8) }
func BenchmarkShardedCommitW4(b *testing.B) { benchShardedCommit(b, 4, 8) }
func BenchmarkShardedCommitW8(b *testing.B) { benchShardedCommit(b, 8, 8) }
