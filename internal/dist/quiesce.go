package dist

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracker is the network's quiescence detector: conservation counters
// over in-flight messages, one per epoch. send() increments the sending
// epoch's counter before a message is enqueued; the worker running a
// node decrements only after the handler has returned, i.e. after every
// message the handler itself sent has already been counted (handlers
// stamp their sends with the epoch of the message they are processing,
// so causality never crosses epoch counters). Under that ordering an
// epoch's counter can only read zero when none of its messages is queued
// or being processed anywhere — "counter hit zero" is exactly "this
// epoch's current stage has quiesced", the per-epoch replacement for the
// old global barrier.
//
// The global sum of all counters is kept too: Drain and the watchdog
// diagnostics still want "is anything at all in flight".
//
// The add/done pair runs twice per message on every worker, so
// the hot path is lock-free: per-epoch counters live in their own
// cache-padded allocations behind a sync.Map (read-mostly: one insert
// per epoch, lock-free loads after that) and the global total is a
// plain atomic. A mutex guards only the cold paths — waiter
// registration and release. Without this, a single counter mutex
// serializes every message on the network and the epoch pipeline's
// concurrency cannot convert into wall-clock throughput: the heals
// overlap but their bookkeeping queues on one lock.
type tracker struct {
	epochs sync.Map // uint64 → *epochCtr
	total  atomic.Int64

	mu      sync.Mutex
	waiters []chan struct{} // released when total hits zero

	// onZero, when set (by the pipeline), is invoked — outside all
	// tracker locks — with each epoch whose counter just reached zero.
	// The pipeline uses it to advance that epoch's state machine.
	onZero func(epoch uint64)
}

// epochCtr is one epoch's in-flight count, padded so counters of
// concurrently active epochs never share a cache line.
type epochCtr struct {
	n atomic.Int64
	_ [56]byte
}

func (t *tracker) ctr(epoch uint64) *epochCtr {
	if c, ok := t.epochs.Load(epoch); ok {
		return c.(*epochCtr)
	}
	c, _ := t.epochs.LoadOrStore(epoch, new(epochCtr))
	return c.(*epochCtr)
}

// add registers n newly sent, not-yet-processed messages of an epoch.
func (t *tracker) add(epoch uint64, n int64) {
	t.ctr(epoch).n.Add(n)
	t.total.Add(n)
}

// done marks one message of an epoch fully processed (its handler
// returned). When that epoch's counter reaches zero the pipeline is
// notified; when the global total reaches zero all Drain waiters are
// released.
func (t *tracker) done(epoch uint64) {
	left := t.ctr(epoch).n.Add(-1)
	if left < 0 {
		panic("dist: quiescence counter went negative (done without send)")
	}
	tot := t.total.Add(-1)
	if tot < 0 {
		panic("dist: global quiescence counter went negative")
	}
	if tot == 0 {
		t.mu.Lock()
		waiters := t.waiters
		t.waiters = nil
		t.mu.Unlock()
		for _, w := range waiters {
			close(w)
		}
	}
	if left == 0 && t.onZero != nil {
		t.onZero(epoch)
	}
}

// release drops a completed epoch's counter from the registry. The
// pipeline calls it when an epoch finishes for good (its counter cannot
// be re-armed afterwards), so the registry stays proportional to the
// number of live epochs over arbitrarily long churn runs.
func (t *tracker) release(epoch uint64) {
	t.epochs.Delete(epoch)
}

// pending returns the current global in-flight count (diagnostics).
func (t *tracker) pending() int64 {
	return t.total.Load()
}

// pendingEpoch returns one epoch's in-flight count (diagnostics).
func (t *tracker) pendingEpoch(epoch uint64) int64 {
	if c, ok := t.epochs.Load(epoch); ok {
		return c.(*epochCtr).n.Load()
	}
	return 0
}

// epochLoads snapshots every epoch with a non-zero counter, sorted by
// epoch ID — the per-epoch half of the watchdog dump, so a stalled epoch
// is attributed to its ID rather than to an anonymous global count.
func (t *tracker) epochLoads() []epochLoad {
	var out []epochLoad
	t.epochs.Range(func(k, v any) bool {
		if n := v.(*epochCtr).n.Load(); n != 0 {
			out = append(out, epochLoad{k.(uint64), n})
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].epoch < out[j].epoch })
	return out
}

// epochLoad is one epoch's in-flight message count.
type epochLoad struct {
	epoch uint64
	count int64
}

func (l epochLoad) String() string {
	return fmt.Sprintf("epoch %d: %d in flight", l.epoch, l.count)
}

// renderEpochLoads formats the per-epoch counters for DumpState.
func renderEpochLoads(loads []epochLoad) string {
	if len(loads) == 0 {
		return "  no epoch has messages in flight\n"
	}
	var b strings.Builder
	for _, l := range loads {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	return b.String()
}

// wait blocks until the whole network quiesces (global in-flight count
// reaches zero) or the timeout elapses, reporting whether quiescence was
// reached. Epoch-granular waiting goes through the pipeline's completion
// channels; this global form backs Drain and the single-epoch blocking
// wrappers' final barrier-equivalent semantics.
func (t *tracker) wait(timeout time.Duration) bool {
	t.mu.Lock()
	// The total is re-read under the waiter lock: done()'s zero path
	// takes the waiter list under the same lock, so either this load
	// sees zero or the registered waiter is guaranteed to be released.
	if t.total.Load() == 0 {
		t.mu.Unlock()
		return true
	}
	w := make(chan struct{})
	t.waiters = append(t.waiters, w)
	t.mu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-w:
		return true
	case <-timer.C:
		return false
	}
}
