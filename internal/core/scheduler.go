package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
)

// DefaultShardRegionCap bounds conflict-region size for concurrent
// admission, mirroring internal/dist's pipeline cap: a kill whose
// region outgrows it falls back to a universal (fully serialized)
// commit rather than paying an unbounded admission walk.
const DefaultShardRegionCap = 512

// ShardTicket tracks one operation through the sharded commit path.
type ShardTicket struct {
	Kill   bool       // kill (true) or join (false)
	Node   int        // victim, or the join's new node
	Attach []int      // join attach targets (duplicate-free)
	HR     HealResult // kill only; populated at commit
	Start  time.Time  // submission time, for latency observers

	healer Healer
	onDone func(*ShardTicket)
	done   chan struct{}
	id     int32
	region []int32
}

// ShardScheduler admits kills and joins from one serial goroutine,
// computes each operation's conflict region (graph.Region: victim ∪
// G-neighbors ∪ their G′ components — the definition internal/dist's
// pipeline shares), and hands non-conflicting operations to a worker
// pool that commits them concurrently through a ShardedState.
//
// Scheduling rules, in order:
//
//   - An operation whose region intersects an in-flight ticket's
//     stamped region waits for that ticket and retries, so conflicting
//     operations serialize in issue order (admission is serial, so the
//     conflict set only ever shrinks while waiting).
//   - A kill whose region exceeds the cap drains all in-flight work
//     and commits inline through the sequential engine (the universal
//     fallback).
//   - Joins admit serially (node allocation and bookkeeping growth are
//     the mini-barrier) while their attach edges commit concurrently.
//
// All methods except worker-internal ones must be called from a single
// goroutine (the trial runner). Memory visibility between
// a completed commit and later admissions is through infMu: workers
// clear their stamps under it after mutating, and admission walks
// regions under it.
type ShardScheduler struct {
	ss        *ShardedState
	healer    Healer
	regionCap int
	tasks     chan *ShardTicket
	wg        sync.WaitGroup
	workers   int

	infMu  sync.Mutex
	stamp  []int32                // node -> owning ticket id, 0 = free
	live   map[int32]*ShardTicket // in-flight stamped tickets by id
	nextID int32

	// Admission scratch: the region being grown and its seeds.
	region graph.Region
	seeds  []int

	closeOnce sync.Once

	// Counters (admission-goroutine only).
	conflicts  int64 // admission waits due to region overlap
	universals int64 // cap-exceeded serialized commits
}

// NewShardScheduler starts a scheduler over ss with the given worker
// count (<= 0 defaults to runtime.NumCPU()). The healer must support
// the sharded path (SupportsSharded). Close must be called to drain
// and stop the workers.
func NewShardScheduler(ss *ShardedState, h Healer, workers int) *ShardScheduler {
	if !SupportsSharded(h) {
		panic(fmt.Sprintf("core: healer %s does not support the sharded commit path", h.Name()))
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	n := ss.st.N()
	sc := &ShardScheduler{
		ss:        ss,
		healer:    h,
		regionCap: DefaultShardRegionCap,
		tasks:     make(chan *ShardTicket, workers),
		workers:   workers,
		stamp:     make([]int32, n),
		live:      make(map[int32]*ShardTicket),
	}
	for i := 0; i < workers; i++ {
		go sc.worker()
	}
	return sc
}

// Workers returns the commit worker count.
func (sc *ShardScheduler) Workers() int { return sc.workers }

// Conflicts returns how many admissions had to wait on an in-flight
// conflicting ticket; Universals returns how many kills fell back to a
// fully serialized commit. Admission-goroutine use only.
func (sc *ShardScheduler) Conflicts() int64  { return sc.conflicts }
func (sc *ShardScheduler) Universals() int64 { return sc.universals }

// Kill submits the removal and heal of v. It blocks while v's region
// conflicts with in-flight work, then either enqueues the commit
// (returning as soon as it is admitted) or, past the region cap,
// drains and commits inline. onDone (optional) runs after the commit,
// before the ticket's waiters are released, and may run on a worker
// goroutine.
func (sc *ShardScheduler) Kill(v int, onDone func(*ShardTicket)) {
	t := &ShardTicket{
		Kill: true, Node: v, healer: sc.healer, onDone: onDone,
		done: make(chan struct{}), Start: time.Now(),
	}
	for {
		sc.infMu.Lock()
		owner, within := sc.growKillRegion(v)
		if owner != nil {
			sc.conflicts++
			ch := owner.done
			sc.infMu.Unlock()
			<-ch
			continue
		}
		if !within {
			sc.universals++
			sc.infMu.Unlock()
			sc.runUniversal(t)
			return
		}
		t.region = append(t.region, sc.region.Nodes...)
		sc.stampRegion(t)
		sc.infMu.Unlock()
		sc.wg.Add(1)
		sc.tasks <- t
		return
	}
}

// Join submits a join to the given attach targets (deduplicated,
// order-preserving), drawing the newcomer's ID from r at admission so
// the RNG stream matches the sequential engine's issue order. It
// returns the new node's index once admitted; the attach edges commit
// asynchronously.
func (sc *ShardScheduler) Join(attachTo []int, r *rng.RNG, onDone func(*ShardTicket)) int {
	attach := make([]int, 0, len(attachTo))
	for _, u := range attachTo {
		dup := false
		for _, w := range attach {
			if w == u {
				dup = true
				break
			}
		}
		if !dup {
			attach = append(attach, u)
		}
	}
	t := &ShardTicket{
		Node: -1, Attach: attach, onDone: onDone,
		done: make(chan struct{}), Start: time.Now(),
	}
	for {
		sc.infMu.Lock()
		var owner *ShardTicket
		for _, u := range attach {
			if id := sc.stamp[u]; id != 0 {
				owner = sc.live[id]
				break
			}
		}
		if owner == nil {
			break
		}
		sc.conflicts++
		ch := owner.done
		sc.infMu.Unlock()
		<-ch
	}
	v := sc.ss.AdmitJoin(attach, r)
	t.Node = v
	// The node space grew; grow the stamp table with it.
	for len(sc.stamp) <= v {
		sc.stamp = append(sc.stamp, 0)
	}
	t.region = make([]int32, 0, len(attach)+1)
	t.region = append(t.region, int32(v))
	for _, u := range attach {
		t.region = append(t.region, int32(u))
	}
	sc.stampRegion(t)
	sc.infMu.Unlock()
	sc.wg.Add(1)
	sc.tasks <- t
	return v
}

// Barrier drains every in-flight commit and folds counters back, after
// which the wrapped State is exact and safe for sequential use (batch
// kills, snapshots, metrics) until the next submission.
func (sc *ShardScheduler) Barrier() {
	sc.wg.Wait()
	sc.ss.Sync()
}

// Close drains in-flight commits, folds counters, and stops the
// workers. Submitting after Close panics. Close is idempotent.
func (sc *ShardScheduler) Close() {
	sc.wg.Wait()
	sc.ss.Sync()
	sc.closeOnce.Do(func() { close(sc.tasks) })
}

// growKillRegion grows v's conflict region into sc.region under infMu.
// It returns the owning ticket of the first stamped node encountered
// (the caller waits and retries), and whether the region stayed within
// the cap. Reading the adjacency of unstamped nodes is safe: only
// region owners mutate a node, and completed owners' writes are visible
// via infMu.
func (sc *ShardScheduler) growKillRegion(v int) (owner *ShardTicket, within bool) {
	st := sc.ss.st
	if id := sc.stamp[v]; id != 0 { // the owner may be rewriting v's adjacency
		return sc.live[id], false
	}
	sc.seeds = st.G.AppendNeighbors(append(sc.seeds[:0], v), v)
	blocker, within := sc.region.Grow(st.Gp, sc.seeds, sc.regionCap, sc.stamp)
	if blocker >= 0 {
		return sc.live[sc.stamp[blocker]], false
	}
	return nil, within
}

// stampRegion claims t's region; caller holds infMu.
func (sc *ShardScheduler) stampRegion(t *ShardTicket) {
	sc.nextID++
	if sc.nextID <= 0 { // wrapped; 0 is the free marker
		sc.nextID = 1
	}
	t.id = sc.nextID
	for _, w := range t.region {
		sc.stamp[w] = t.id
	}
	sc.live[t.id] = t
}

// runUniversal commits t after draining all in-flight work — the
// cap-exceeded fallback. Admission is serial, so nothing can be
// admitted while this runs, and the commit has the whole State to
// itself.
func (sc *ShardScheduler) runUniversal(t *ShardTicket) {
	sc.wg.Wait()
	sc.commit(t)
	sc.finish(t)
}

func (sc *ShardScheduler) worker() {
	for t := range sc.tasks {
		sc.commit(t)
		sc.infMu.Lock()
		for _, w := range t.region {
			if sc.stamp[w] == t.id {
				sc.stamp[w] = 0
			}
		}
		delete(sc.live, t.id)
		sc.infMu.Unlock()
		sc.finish(t)
		sc.wg.Done()
	}
}

// commit applies t's kill or join on the calling goroutine.
func (sc *ShardScheduler) commit(t *ShardTicket) {
	if t.Kill {
		t.HR = sc.ss.CommitKill(t.Node, t.healer)
	} else {
		sc.ss.CommitJoin(t.Node, t.Attach)
	}
}

// finish runs t's onDone callback and then releases its waiters.
func (sc *ShardScheduler) finish(t *ShardTicket) {
	if t.onDone != nil {
		t.onDone(t)
	}
	close(t.done)
}
