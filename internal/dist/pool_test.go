package dist

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// churnRun is a sequential DASH churn run over a BA(n, 3) graph: the
// starting graph, its initial IDs, and the sequential state after the
// ops drawn so far.
type churnRun struct {
	g   *graph.Graph
	ids []uint64
	seq *core.State
}

// newChurnRun builds the starting graph and its sequential twin.
func newChurnRun(n int, seed uint64) (*churnRun, *rng.RNG) {
	master := rng.New(seed)
	g := gen.BarabasiAlbert(n, 3, master.Split())
	seq := core.NewState(g.Clone(), master.Split())
	ids := InitIDs(seq)
	return &churnRun{g: g, ids: ids, seq: seq}, master
}

// next applies one random churn op to the sequential twin — a kill of a
// random alive node or a join to three of them, alternating at random —
// and returns it, join slot and initial ID recorded, for the
// distributed side to replay.
func (cr *churnRun) next(r *rng.RNG) Op {
	alive := cr.seq.G.AliveNodes()
	op := Op{Kind: OpKill}
	if r.Intn(2) == 0 {
		op.Victim = alive[r.Intn(len(alive))]
	} else {
		op.Kind = OpJoin
		for len(op.Attach) < 3 {
			if u := alive[r.Intn(len(alive))]; !slices.Contains(op.Attach, u) {
				op.Attach = append(op.Attach, u)
			}
		}
	}
	if err := op.Apply(cr.seq, core.DASH{}, r); err != nil {
		panic(err) // a join with no slot yet is recorded, never checked
	}
	return op
}

// TestOneWorkerPipelinedChurn runs pipelined churn on a pool of one
// worker. A handler that blocked on another actor would deadlock here,
// since nothing else could run that actor; the run must instead finish
// and match the sequential engine at every drain.
func TestOneWorkerPipelinedChurn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cr, r := newChurnRun(2048, 11)
	nw := NewKind(cr.g.Clone(), cr.ids, HealDASH)
	defer nw.Close()
	const window, flushEvery = 8, 4
	for w := 0; w < 64; w++ {
		for i := 0; i < window; i++ {
			mustIssue(t, nw, cr.next(r))
		}
		if (w+1)%flushEvery != 0 {
			continue
		}
		if err := nw.Drain(testTimeout); err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		assertStateEqual(t, w, nw, cr.seq)
	}
}

// TestPoolGoroutineBound pins the runtime's footprint: a network of
// thousands of nodes runs on GOMAXPROCS workers, not a goroutine per
// node, and Close leaves none of them behind.
func TestPoolGoroutineBound(t *testing.T) {
	const n, slack = 4096, 2
	cr, r := newChurnRun(n, 5)
	before := runtime.NumGoroutine()
	nw := NewKind(cr.g.Clone(), cr.ids, HealDASH)
	limit := before + runtime.GOMAXPROCS(0) + slack
	if got := runtime.NumGoroutine(); got > limit {
		t.Fatalf("%d goroutines after NewKind at n=%d, want at most %d", got, n, limit)
	}
	for i := 0; i < 64; i++ {
		mustIssue(t, nw, cr.next(r))
	}
	if err := nw.Drain(testTimeout); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > limit {
		t.Fatalf("%d goroutines after churn, want at most %d", got, limit)
	}
	nw.Close()
	// A worker calls wg.Done before its goroutine has fully exited, so
	// give the runtime a moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after Close, %d before NewKind: workers leaked", got, before)
	}
}

// TestMailboxReusesItsArray pins the mailbox's queue discipline: FIFO
// across a head offset, takeAt and peekAll relative to the head, the
// backing array kept across drains, and dropped once a burst grew it
// past mailboxKeepCap.
func TestMailboxReusesItsArray(t *testing.T) {
	m := new(mailbox)
	if !m.push(message{hops: 0}) || m.push(message{hops: 1}) {
		t.Fatal("only the push that finds the node idle may wake it")
	}
	m.push(message{hops: 2})
	if msg, _ := m.pop(); msg.hops != 0 {
		t.Fatalf("pop got %d, want 0", msg.hops)
	}
	if got := m.peekAll(); len(got) != 2 || got[0].hops != 1 || got[1].hops != 2 {
		t.Fatalf("peekAll past the head: %+v", got)
	}
	if msg := m.takeAt(1); msg.hops != 2 || m.size() != 1 {
		t.Fatalf("takeAt(1) got %d, size %d", msg.hops, m.size())
	}
	m.pop()
	if _, ok := m.pop(); ok || m.scheduled {
		t.Fatal("an empty pop must report false and clear the scheduled flag")
	}
	backing := cap(m.queue)
	for i := 0; i < 10; i++ {
		m.push(message{hops: i})
		m.pop()
	}
	if cap(m.queue) != backing || backing == 0 {
		t.Fatalf("drained mailbox reallocated: cap %d, was %d", cap(m.queue), backing)
	}
	for i := 0; i <= mailboxKeepCap; i++ {
		m.push(message{hops: i})
	}
	for i := 0; i <= mailboxKeepCap; i++ {
		if msg, _ := m.pop(); msg.hops != i {
			t.Fatalf("pop %d got %d", i, msg.hops)
		}
	}
	if m.queue != nil {
		t.Fatalf("a drained array of cap %d was kept", cap(m.queue))
	}
}

// BenchmarkDistChurnReplay replays a recorded sustained-churn stream
// (n = 2048, alternating random kills and joins) through Network.Issue
// in windows of 8, waiting on each window's epochs
// and draining at the end: the distributed runtime under the load the
// dist-churn workload puts on it. One op is the whole replay; the
// per-churn-op cost is reported alongside.
func BenchmarkDistChurnReplay(b *testing.B) {
	const n, ops, window = 2048, 1024, 8
	cr, r := newChurnRun(n, 3)
	stream := make([]Op, ops)
	for i := range stream {
		stream[i] = cr.next(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nw := NewKind(cr.g.Clone(), cr.ids, HealDASH)
		b.StartTimer()
		eps := make([]*Epoch, 0, window)
		for lo := 0; lo < ops; lo += window {
			eps = eps[:0]
			for _, op := range stream[lo:min(lo+window, ops)] {
				eps = append(eps, mustIssue(b, nw, op))
			}
			for _, ep := range eps {
				if err := ep.Wait(testTimeout); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := nw.Drain(testTimeout); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if i == 0 {
			if err := nw.Diverges(cr.seq); err != nil {
				b.Fatal(err)
			}
		}
		nw.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ops), "ns/churn-op")
}
