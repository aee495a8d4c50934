package server

// Load generation: compile a scenario schedule (the same declarative
// workloads the offline experiments run) into live HTTP traffic against
// a daemon, spread across many concurrent client sessions. The offline
// engine applies a schedule to an in-process State; this one applies it
// over the wire, which is exactly what makes it a service test — queue
// waits, backpressure retries, and encode/decode costs are all inside
// the measured latency.
//
// Latencies here are client-observed and exact (sorted samples, not
// histogram buckets): the daemon's /metrics histogram should bound these
// from below, never disagree with them wildly — a cheap cross-check the
// smoke test exploits.

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
)

// LoadConfig drives RunLoad.
type LoadConfig struct {
	// Schedule is the workload; compile order is preserved, but ops are
	// consumed by Sessions concurrent workers, so interleaving across
	// sessions is scheduler-determined — this is a service load test, not
	// a deterministic replay.
	Schedule scenario.Schedule
	// Sessions is the number of concurrent client sessions; <= 0 means 1.
	Sessions int
}

// LoadReport summarizes one load run.
type LoadReport struct {
	Requests    int64         `json:"requests"`
	Errors      int64         `json:"errors"`
	Pushback    int64         `json:"pushback_429"`
	NodesJoined int64         `json:"nodes_joined"`
	NodesKilled int64         `json:"nodes_killed"`
	Duration    time.Duration `json:"duration_ns"`
	RPS         float64       `json:"rps"`
	P50         time.Duration `json:"p50_ns"`
	P95         time.Duration `json:"p95_ns"`
	P99         time.Duration `json:"p99_ns"`
}

// quantile is the exact q-quantile of sorted samples (nearest-rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// RunLoad replays the schedule against the daemon from cfg.Sessions
// concurrent sessions and reports sustained throughput and exact
// client-observed latency quantiles. Request-level rejections (409s on
// an emptied graph, deadline-bounded 429s) are counted, not fatal;
// transport errors end the run with that error. A schedule that fails
// Validate is refused before any request is sent. Quiet rounds send
// nothing: over HTTP, not sending a request is the faithful rendering
// of a quiet period.
func RunLoad(ctx context.Context, c *Client, cfg LoadConfig) (LoadReport, error) {
	sessions := cfg.Sessions
	if sessions <= 0 {
		sessions = 1
	}
	events, err := cfg.Schedule.Compile()
	if err != nil {
		return LoadReport{}, err
	}
	ops := make([]scenario.Event, 0, len(events))
	for _, ev := range events {
		if ev.Kind != scenario.OpQuiet {
			ops = append(ops, ev)
		}
	}
	feed := make(chan scenario.Event, sessions)

	var rep LoadReport
	var joined, killed, errs int64
	var mu sync.Mutex
	var firstErr error
	lats := make([][]time.Duration, sessions)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make([]time.Duration, 0, len(ops)/sessions+1)
			defer func() {
				mu.Lock()
				lats[w] = mine
				mu.Unlock()
			}()
			for op := range feed {
				if ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				var err error
				switch op.Kind {
				case scenario.OpInsert:
					_, err = c.Join(ctx, nil, op.Size)
					if err == nil {
						atomic.AddInt64(&joined, 1)
					}
				case scenario.OpDelete:
					_, err = c.Kill(ctx, -1)
					if err == nil {
						atomic.AddInt64(&killed, 1)
					}
				case scenario.OpBatchKill:
					var res BatchKillResult
					res, err = c.BatchKill(ctx, nil, op.Size, -1)
					if err == nil {
						atomic.AddInt64(&killed, int64(len(res.Killed)))
					}
				}
				if err == nil {
					mine = append(mine, time.Since(t0))
					continue
				}
				atomic.AddInt64(&errs, 1)
				if _, ok := err.(*apiError); !ok && ctx.Err() == nil {
					// Transport failure: the daemon is gone or the wire
					// broke — record it and stop this session.
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
feedLoop:
	for _, op := range ops {
		select {
		case feed <- op:
		case <-ctx.Done():
			break feedLoop
		}
	}
	close(feed)
	wg.Wait()

	rep.Duration = time.Since(start)
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.Requests = int64(len(all)) + errs
	rep.Errors = errs
	rep.Pushback = c.Retried429()
	rep.NodesJoined = joined
	rep.NodesKilled = killed
	if rep.Duration > 0 {
		rep.RPS = float64(len(all)) / rep.Duration.Seconds()
	}
	rep.P50 = quantile(all, 0.50)
	rep.P95 = quantile(all, 0.95)
	rep.P99 = quantile(all, 0.99)
	return rep, firstErr
}
