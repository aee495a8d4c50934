package experiments

// The parallel trial pool must be invisible in the output: every table is
// required to be bit-identical whether trials run on one worker or many
// (trial seeds are pre-split in order; results merge by trial index).

import (
	"testing"
)

func TestParallelSweepDeterminism(t *testing.T) {
	sizes := []int{24, 48}
	const trials, seed = 4, 11
	defer func(old int) { Workers = old }(Workers)

	names := []string{"Fig8", "Fig9(a)", "Fig9(b)", "Batch", "Churn"}
	generate := func(workers int) []string {
		Workers = workers
		a, b := Fig9(sizes, trials, seed)
		return []string{
			Fig8(sizes, trials, seed).String(),
			a.String(), b.String(),
			Batch(24, []int{1, 3}, trials, seed).String(),
			Churn(24, 48, trials, seed).String(),
		}
	}

	serial := generate(1)
	for _, workers := range []int{2, 8} {
		for i, parallel := range generate(workers) {
			if parallel != serial[i] {
				t.Errorf("%s differs at %d workers:\nserial:\n%s\nparallel:\n%s",
					names[i], workers, serial[i], parallel)
			}
		}
	}
}
