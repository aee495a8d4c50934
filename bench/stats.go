package main

import (
	"math"
	"sort"
	"time"
)

// latencySummary is one latency population's sample count, median and
// p99.
type latencySummary struct {
	Samples int
	P50us   float64
	P99us   float64
}

// percentileIndex is the nearest-rank index of percentile p (0 < p < 100)
// in n sorted samples.
func percentileIndex(n int, p float64) int {
	// The epsilon keeps p·n/100 = 9990.000000000002 from rounding up.
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	return min(max(i, 0), n-1)
}

// percentile returns the nearest-rank percentile p of sorted samples, in µs.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return us(sorted[percentileIndex(len(sorted), p)])
}

// tailPercentile returns the highest of 99.9, 99, 90 and 50 that leaves at
// least ten of n samples beyond it, or 0 when none does.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 90, 50} {
		if n-(percentileIndex(n, p)+1) >= 10 {
			return p
		}
	}
	return 0
}

// summarize sorts samples in place and summarizes them. Percentiles are
// taken from the nanosecond samples, not from rounded microseconds.
func summarize(samples []time.Duration) latencySummary {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	s := latencySummary{Samples: len(samples)}
	if len(samples) == 0 {
		return s
	}
	s.P50us = percentile(samples, 50)
	s.P99us = percentile(samples, 99)
	return s
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so the spreads this benchmark reports match the ones its
// acceptance check computes. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// openLoopLatency is one open-loop request's latency from the moment it
// was due, as a generator without timer slop would have seen it on the
// single connection: the request starts at its due time or when the
// previous request finished, whichever is later, and then takes the
// round trip it actually took. prevDone and the returned done are on that
// slop-free timeline.
//
// A stall therefore still delays every request due behind it, but the
// generator oversleeping does not, not even through the requests queued
// behind the late one. Subtracting only each request's own slop,
// done − due − max(0, sent − max(due, prevDone)), would count that
// carried-over slop as waiting.
func openLoopLatency(due, prevDone time.Time, roundTrip time.Duration) (lat time.Duration, done time.Time) {
	start := due
	if prevDone.After(start) {
		start = prevDone
	}
	done = start.Add(roundTrip)
	return done.Sub(due), done
}
