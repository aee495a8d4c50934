// Package par provides the one concurrency primitive this repository
// needs: a deterministic fan-out of an indexed work list across a fixed
// worker pool. Both the graph layer's all-sources BFS sweeps and the
// experiment trial loop (ForEachTrial) are built on it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// Do runs body(w, i) for every item i in 0..items-1 across workers
// goroutines, where w identifies the worker (0..workers-1) so bodies can
// own per-worker scratch. Items are handed out by an atomic counter;
// bodies must write only item-owned (or worker-owned) state, which makes
// the overall result independent of scheduling — callers get the same
// answer at any worker count. workers is clamped to items; workers <= 1
// runs every item inline on the caller's goroutine.
func Do(items, workers int, body func(w, i int)) {
	if workers > items {
		workers = items
	}
	if workers <= 1 {
		for i := 0; i < items; i++ {
			body(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= items {
					return
				}
				body(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// ForEachTrial runs body(i, tr) for trials 0..trials-1, fanning out
// across a worker pool. Determinism is preserved at any parallelism: the
// per-trial generators are split from master serially, in trial order,
// before any worker starts, and each body invocation owns trial i alone —
// callers store outputs by index, so merged results match the serial run
// bit for bit. workers <= 0 uses every CPU; 1 runs inline.
func ForEachTrial(trials int, master *rng.RNG, workers int, body func(i int, tr *rng.RNG)) {
	rngs := make([]*rng.RNG, trials)
	for i := range rngs {
		rngs[i] = master.Split()
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	Do(trials, workers, func(_, i int) {
		body(i, rngs[i])
	})
}
