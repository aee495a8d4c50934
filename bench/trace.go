package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// Spans are recorded only in this package, around calls into each layer's
// public functions; nothing inside the program is instrumented. A span is
// aggregated by name for every operation, and kept in full for a sample
// of operations (see tracer.every).

type spanKind uint8

const (
	spVictim    spanKind = iota // scenario VictimPolicy.Pick
	spRemove                    // core: op latency minus the heal span (State.Remove and bookkeeping)
	spReconnect                 // core: State.ReconnectSet
	spSort                      // core: State.SortByDelta
	spWire                      // core: WireStar / WireBinaryTree
	spFlood                     // core: State.PropagateMinID
	spJoin                      // core: State.Join (the whole join op)
	spOtherHeal                 // baseline healers and SDASHFull, timed whole
	spAttack                    // attack.Strategy.Next
	spDistIssue                 // dist: KillAsync/JoinAsync
	spDistWait                  // dist: waiting for a window's epochs
	spDistDrain                 // dist: Network.Drain
	spHTTP                      // serve: round trip minus server-reported latency
	spApply                     // serve: server-reported latency (queue wait + apply)
	spStretch                   // serve: GET /metrics?stretch=1
	numSpans
)

var spanNames = [numSpans]string{
	"scenario.victim", "core.remove", "core.reconnect", "core.sort", "core.wire", "core.flood",
	"core.join", "baseline.heal", "attack.next", "dist.issue", "dist.wait", "dist.drain",
	"server.http", "server.apply", "server.stretch_query",
}

// spanParents gives each span the span it nests in; "" means it is a
// direct child of the operation.
var spanParents = [numSpans]string{
	spReconnect: "core.heal", spSort: "core.heal", spWire: "core.heal", spFlood: "core.heal",
}

// maxSpanRecords bounds the full span records one run keeps in memory.
const maxSpanRecords = 100_000

type spanRecord struct {
	Op      uint64 `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartUS int64  `json:"start_us"`
	DurNS   int64  `json:"dur_ns"`
}

// tracer aggregates spans per name and samples full records. It is used
// from one goroutine at a time; a nil *tracer records nothing, which is
// how the untraced run skips it.
type tracer struct {
	t0    time.Time
	total [numSpans]time.Duration

	op    uint64 // current operation id
	every uint64 // full records are kept for ops with op%every == 0
	recs  []spanRecord
}

func newTracer() *tracer { return &tracer{t0: time.Now(), every: 1} }

// nextOp starts a new operation; later spans belong to it.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

func (t *tracer) add(k spanKind, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.total[k] += d
	if t.op%t.every != 0 {
		return
	}
	t.recs = append(t.recs, spanRecord{
		Op: t.op, Name: spanNames[k], Parent: spanParents[k],
		StartUS: start.Sub(t.t0).Microseconds(), DurNS: int64(d),
	})
	if len(t.recs) >= maxSpanRecords {
		// Halve the sample rate and keep only the records it still covers.
		t.every *= 2
		kept := t.recs[:0]
		for _, r := range t.recs {
			if r.Op%t.every == 0 {
				kept = append(kept, r)
			}
		}
		t.recs = kept
	}
}

func (t *tracer) ms(k spanKind) float64 {
	if t == nil {
		return 0
	}
	return ms(t.total[k])
}

// writeJSONL writes the sampled span records to path.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range t.recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// healStats are counts the stage healer takes where the work happens.
type healStats struct {
	heals      int64
	rtSum      int64
	edgesAdded int64
	healSpan   time.Duration // time inside the most recent Heal
	healed     bool          // a Heal ran since the last op boundary
}

// stageHealer runs DASH or SDASH through the same public State steps
// core's Heal methods call, in the same order, and times each step. Its
// results are bit-identical to the wrapped healer's (the traced run's
// digests are checked against the untraced run's).
type stageHealer struct {
	inner     core.Healer // core.DASH{} or core.SDASH{}
	surrogate bool        // SDASH's star rule
	tr        *tracer
	st        *healStats
}

func newStageHealer(h core.Healer, tr *tracer, st *healStats) core.Healer {
	_, sdash := h.(core.SDASH)
	return stageHealer{inner: h, surrogate: sdash, tr: tr, st: st}
}

func (h stageHealer) Name() string { return h.inner.Name() }

func (h stageHealer) Heal(s *core.State, d core.Deletion) core.HealResult {
	t0 := time.Now()
	rt := s.ReconnectSet(d)
	t1 := time.Now()
	res := core.HealResult{RTSize: len(rt)}
	t2, t3 := t1, t1
	if len(rt) > 0 {
		s.SortByDelta(rt)
		t2 = time.Now()
		if w, m := rt[0], rt[len(rt)-1]; h.surrogate && s.Delta(w)+len(rt)-1 <= s.Delta(m) {
			res.Added = s.WireStar(w, rt)
			res.Surrogated = true
		} else {
			res.Added = s.WireBinaryTree(rt)
		}
		t3 = time.Now()
		s.PropagateMinID(rt)
	}
	t4 := time.Now()
	h.tr.add(spReconnect, t0, t1.Sub(t0))
	h.tr.add(spSort, t1, t2.Sub(t1))
	h.tr.add(spWire, t2, t3.Sub(t2))
	h.tr.add(spFlood, t3, t4.Sub(t3))
	h.st.heals++
	h.st.rtSum += int64(len(rt))
	h.st.edgesAdded += int64(len(res.Added))
	h.st.healSpan = t4.Sub(t0)
	h.st.healed = true
	return res
}

// timedHealer times any other healer as one span.
type timedHealer struct {
	inner core.Healer
	tr    *tracer
}

func (h timedHealer) Name() string { return h.inner.Name() }

func (h timedHealer) Heal(s *core.State, d core.Deletion) core.HealResult {
	t0 := time.Now()
	res := h.inner.Heal(s, d)
	h.tr.add(spOtherHeal, t0, time.Since(t0))
	return res
}

// timedVictim times a scenario VictimPolicy's picks and, when events is
// set, the interval from one pick to the next: one whole deletion event.
// It forwards the HealObserver feed, without which MaxDegree's index
// would go stale and pick different victims.
type timedVictim struct {
	inner  scenario.VictimPolicy
	tr     *tracer
	events *[]time.Duration
	last   time.Time
}

func (v *timedVictim) Name() string { return v.inner.Name() }

func (v *timedVictim) Pick(s *core.State, alive *scenario.AliveSet, r *rng.RNG) int {
	t0 := time.Now()
	if v.events != nil && !v.last.IsZero() {
		*v.events = append(*v.events, t0.Sub(v.last))
	}
	v.last = t0
	x := v.inner.Pick(s, alive, r)
	if v.tr != nil {
		v.tr.add(spVictim, t0, time.Since(t0))
	}
	return x
}

func (v *timedVictim) ObserveHeal(s *core.State, added [][2]int) {
	if o, ok := v.inner.(scenario.HealObserver); ok {
		o.ObserveHeal(s, added)
	}
}

func (v *timedVictim) ObserveJoin(s *core.State, node int, attach []int) {
	if o, ok := v.inner.(scenario.HealObserver); ok {
		o.ObserveJoin(s, node, attach)
	}
}
