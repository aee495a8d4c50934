//go:build race

package metrics

// raceEnabled reports a -race build, where sync.Pool drops items at
// random by design, so allocation counts of pooled code mean nothing.
const raceEnabled = true
