package par

import (
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

// TestForEachTrialDraws pins the determinism contract every experiment
// table relies on: trial i sees the i-th generator split from the
// master, whatever the worker count, including pools larger than the
// trial count.
func TestForEachTrialDraws(t *testing.T) {
	const seed = 17
	for _, trials := range []int{1, 3, 20} {
		want := make([][]uint64, trials)
		master := rng.New(seed)
		for i := range want {
			r := master.Split()
			want[i] = []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
		}
		for _, workers := range []int{1, 2, 8, 0} {
			got := make([][]uint64, trials)
			var calls atomic.Int64
			ForEachTrial(trials, rng.New(seed), workers, func(i int, tr *rng.RNG) {
				calls.Add(1)
				got[i] = []uint64{tr.Uint64(), tr.Uint64(), tr.Uint64()}
			})
			if int(calls.Load()) != trials {
				t.Fatalf("trials=%d workers=%d: body ran %d times", trials, workers, calls.Load())
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("trials=%d workers=%d: trial %d drew %v, serial split drew %v",
						trials, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDoCoversEveryItemOnce checks that Do hands each item to exactly
// one body call and that worker ids stay below the clamped pool size.
func TestDoCoversEveryItemOnce(t *testing.T) {
	for _, tc := range []struct{ items, workers int }{{0, 4}, {1, 8}, {5, 8}, {100, 3}, {7, 1}} {
		hits := make([]atomic.Int32, tc.items)
		var badWorker atomic.Bool
		Do(tc.items, tc.workers, func(w, i int) {
			if w < 0 || w >= max(1, min(tc.workers, tc.items)) {
				badWorker.Store(true)
			}
			hits[i].Add(1)
		})
		if badWorker.Load() {
			t.Errorf("items=%d workers=%d: worker id out of range", tc.items, tc.workers)
		}
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Errorf("items=%d workers=%d: item %d ran %d times", tc.items, tc.workers, i, h)
			}
		}
	}
}
