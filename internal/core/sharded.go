package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/rng"
)

// ShardedState layers the concurrent commit path over a State: kills
// and joins whose conflict regions are disjoint (the invariant
// ShardScheduler enforces with the region definition internal/dist's
// pipelined-epoch scheduler shares) commit from different goroutines at
// once.
//
// It is a mode of the sequential engine, not a copy of it: a commit
// runs the healer's own Heal (and State's own Remove and Join halves)
// on a per-commit view of the State. The view shares every backing
// array and graph, fires no hooks, and routes the few writes that can
// leave the region through the mutation surface in mutate.go.
//
// Division of labor for safety (the full argument is in
// internal/graph/README.md):
//
//   - Exclusive ownership of every node a commit reads or structurally
//     writes comes from the scheduler's region stamps, and the healer's
//     RegionLocal promise to stay inside the region. Within it a commit
//     uses plain loads and stores, exactly like the sequential engine.
//   - Graph mutations go through graph.Sharded, whose per-shard cells
//     lock the shared adjacency slots and counters for one primitive.
//   - The only out-of-region writes are the Lemma 8 "ring" counters:
//     an adopting node bumps msgRecv of all its G neighbors, which may
//     belong to other regions. Those are atomic adds — commutative, so
//     any commit interleaving yields the sequential totals.
//   - Global scalars (rounds, flood depths, dropped weight, peak δ)
//     accumulate in atomics — sums and max-merges, commutative again —
//     and fold back into the wrapped State at Sync.
//   - Per-node bookkeeping arrays grow on join admission; commits hold
//     grow shared so array headers never move under them.
//
// Because every shared update commutes and conflicting operations are
// serialized in issue order by the scheduler, the final State is
// bit-identical to the sequential engine applying the same operations
// in issue order — the property the differential and interleaving
// tests in sharded_test.go check.
type ShardedState struct {
	st *State
	cm commit

	// grow is held shared by every commit and exclusively by join
	// admission, whose node allocation and bookkeeping growth move the
	// graph and per-node array headers commits index into.
	grow sync.RWMutex

	// peakDelta is the running max δ over healed-edge endpoints and
	// join attach targets.
	peakDelta atomic.Int64
}

// NewShardedState wraps st for concurrent commits with the given shard
// count (see graph.NewSharded for rounding/defaulting). The wrapped
// State must be quiescent; it remains usable sequentially whenever no
// commits are in flight and Sync has run.
func NewShardedState(st *State, shards int) *ShardedState {
	ss := &ShardedState{st: st}
	ss.cm.sg = graph.NewSharded(st.G, shards)
	ss.cm.sgp = graph.NewSharded(st.Gp, shards)
	return ss
}

// PeakDelta returns the largest δ observed at any healed-edge endpoint
// or join attach target since construction (a running max, mirroring
// the scenario runner's peak tracking).
func (ss *ShardedState) PeakDelta() int64 { return ss.peakDelta.Load() }

// Sync folds all accumulated deltas back into the wrapped State and
// its graphs. It must only run at quiescence (no commits in flight);
// afterwards the State's counters are exact and the sequential code
// paths (snapshots, batch heals, metrics) can run on it directly.
func (ss *ShardedState) Sync() {
	cm := &ss.cm
	cm.sg.Sync()
	cm.sgp.Sync()
	st := ss.st
	st.rounds += int(cm.rounds.Swap(0))
	st.floodDepthSum += cm.floodDepthSum.Swap(0)
	if m := int(cm.maxFloodDepth.Load()); m > st.maxFloodDepth {
		st.maxFloodDepth = m
	}
	st.droppedWeight += cm.droppedWeight.Swap(0)
}

// RegionLocal is implemented by healers that can run on the sharded
// commit path. Declaring it promises that Heal reads and writes only
// nodes inside the deletion's conflict region — the victim, its G
// neighbors, and their G′ components (graph.Region) — and mutates the
// State only through its methods, never through G or Gp directly.
// DASH and SDASH qualify: their reconnection set lies in N(x,G) ∪
// N(x,G′) and their flood stays inside the merged G′ component.
type RegionLocal interface {
	Healer
	// RegionLocal is a marker; it is never called.
	RegionLocal()
}

// SupportsSharded reports whether h can run on the sharded commit
// path, i.e. whether it declares RegionLocal. Other healers fall back
// to the single-writer path.
func SupportsSharded(h Healer) bool {
	_, ok := h.(RegionLocal)
	return ok
}

// view returns a per-commit view of the wrapped State: it shares every
// array and graph, fires no hooks, and writes shared state through ss's
// commit. Callers must hold grow shared.
func (ss *ShardedState) view() *State {
	v := *ss.st
	v.hooks = nil
	v.cm = &ss.cm
	return &v
}

// CommitKill removes x and heals with h — State.DeleteAndHeal on a
// per-commit view. The caller must own x's conflict region
// (ShardScheduler does).
func (ss *ShardedState) CommitKill(x int, h Healer) HealResult {
	ss.grow.RLock()
	defer ss.grow.RUnlock()
	res := ss.view().DeleteAndHeal(x, h)
	for _, e := range res.Added {
		ss.notePeak(e[0])
		ss.notePeak(e[1])
	}
	return res
}

// AdmitJoin performs the admission half of a join — node allocation,
// the ID draw and bookkeeping growth — and returns the new node's
// index. It must run on the scheduler's serial admission goroutine: it
// waits out every in-flight commit (the brief mini-barrier that makes
// concurrent commits safe against array growth). attachTo must be
// alive, unstamped, and duplicate-free.
func (ss *ShardedState) AdmitJoin(attachTo []int, r *rng.RNG) int {
	ss.grow.Lock()
	defer ss.grow.Unlock()
	return ss.st.admitJoin(attachTo, r)
}

// CommitJoin wires a previously admitted join's attach edges — the
// concurrent half. The caller must own {v} ∪ attachTo.
func (ss *ShardedState) CommitJoin(v int, attachTo []int) {
	ss.grow.RLock()
	defer ss.grow.RUnlock()
	ss.view().attachJoin(v, attachTo)
	for _, u := range attachTo {
		ss.notePeak(u)
	}
}

// notePeak max-merges v's δ into the running peak; v is region-owned,
// so the degree read is exclusive.
func (ss *ShardedState) notePeak(v int) {
	atomicMaxInt64(&ss.peakDelta, int64(ss.st.Delta(v)))
}
