package graph

import (
	"fmt"
	"runtime"
	"sync"
)

// Sharded partitions a Graph's node space into power-of-two node-range
// shards so that commits touching disjoint node sets can mutate the
// same graph concurrently. It is the hardware half of the pipelined-
// epoch story: the conflict-region scheduler (internal/core, using the
// Region definition it shares with internal/dist) proves two heals
// touch disjoint node sets; this type makes their mutations safe to run
// on different cores.
//
// Layout: nodes are assigned to shards block-cyclically in 64-node
// ranges — shard(v) = (v >> 6) & (shards-1) — so a contiguous burst of
// joins spreads across shards while each shard still owns contiguous
// cache-friendly ranges.
//
// Locking model (see internal/graph/README.md for the full argument):
//
//   - Semantic exclusivity over a node (who may change its adjacency)
//     comes from the caller — the scheduler's conflict-region stamps —
//     NOT from shard locks. A heal's region typically spans most
//     shards, so holding every covering shard lock for a whole commit
//     would serialize everything and defeat the point.
//   - Shard locks are held only for the duration of a single primitive
//     (one edge insert, one node removal) to protect the per-shard
//     counters that unrelated commits in the same shard also update.
//     Cross-shard edges take the two cell locks in ascending shard
//     order, so lock acquisition is deadlock-free.
//   - Structural growth (Graph.AddNode moves the adj/alive headers) and
//     delta fold-back (Sync) must not overlap any primitive. Keeping
//     them apart is the caller's job; core.ShardedState does it with
//     one RWMutex held shared by commits and exclusively by growth.
//
// Counters: per-shard cells accumulate alive/arc deltas; the wrapped
// Graph's own nAliv/nEdge stay frozen between Sync calls. Sync (called
// at barriers, under exclusion) folds the deltas back so the plain
// sequential code paths — snapshots, batch heals, metrics — see exact
// counts again.
type Sharded struct {
	g     *Graph
	mask  uint32
	cells []shardCell
}

// shardBlockShift sets the block-cyclic range size: 1<<6 = 64 nodes per
// contiguous block.
const shardBlockShift = 6

// shardCell is one shard's mutable state, padded out to its own cache
// lines so neighboring shards don't false-share.
type shardCell struct {
	mu    sync.Mutex
	dAliv int // alive-count delta vs g.nAliv since the last Sync
	dArc  int // half-edge (arc) delta vs 2*g.nEdge since the last Sync
	_     [96]byte
}

// MaxShards bounds the shard count; beyond this the per-commit locking
// overhead dwarfs any contention win.
const MaxShards = 1 << 10

// NewSharded wraps g (sharing, not copying, its storage) with shards
// mutation shards. shards <= 0 defaults to runtime.NumCPU(); any value
// is rounded up to a power of two and capped at MaxShards. While any
// primitive may be running, the wrapped graph must be mutated only
// through the returned Sharded. Sharded's inserts do not note degree
// rises, so NewSharded drops g's max-degree index, and so does Sync.
func NewSharded(g *Graph, shards int) *Sharded {
	g.maxIx = nil
	if shards <= 0 {
		shards = runtime.NumCPU()
	}
	n := 1
	for n < shards && n < MaxShards {
		n <<= 1
	}
	return &Sharded{
		g:     g,
		mask:  uint32(n - 1),
		cells: make([]shardCell, n),
	}
}

// Shards returns the shard count (a power of two).
func (s *Sharded) Shards() int { return len(s.cells) }

// ShardOf returns the shard index owning node v.
func (s *Sharded) ShardOf(v int) int {
	return int((uint32(v) >> shardBlockShift) & s.mask)
}

func (s *Sharded) cell(v int) *shardCell {
	return &s.cells[(uint32(v)>>shardBlockShift)&s.mask]
}

// AddEdge inserts the undirected edge (u,v), reporting whether it was
// newly added (false if it already existed). Panics mirror
// Graph.AddEdge: self-loops and dead endpoints are simulation bugs.
// Callers must own both endpoints (conflict-region exclusivity).
func (s *Sharded) AddEdge(u, v int) bool {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	su, sv := s.ShardOf(u), s.ShardOf(v)
	cu, cv := &s.cells[su], &s.cells[sv]
	// Ascending shard-index lock order keeps cross-shard edges
	// deadlock-free. Deferred unlocks keep the cells usable after a
	// dead-endpoint panic (the panics mirror Graph.AddEdge and tests
	// recover from them).
	switch {
	case su == sv:
		cu.mu.Lock()
		defer cu.mu.Unlock()
	case su < sv:
		cu.mu.Lock()
		cv.mu.Lock()
		defer cu.mu.Unlock()
		defer cv.mu.Unlock()
	default:
		cv.mu.Lock()
		cu.mu.Lock()
		defer cv.mu.Unlock()
		defer cu.mu.Unlock()
	}
	return s.addEdgeLocked(u, v, cu, cv)
}

func (s *Sharded) addEdgeLocked(u, v int, cu, cv *shardCell) bool {
	g := s.g
	g.checkAlive(u)
	g.checkAlive(v)
	iu, ok := search(g.adj[u], int32(v))
	if ok {
		return false
	}
	g.insertArc(u, v, iu)
	iv, _ := search(g.adj[v], int32(u))
	g.insertArc(v, u, iv)
	cu.dArc++
	cv.dArc++
	return true
}

// RemoveNode kills v, removing all its incident edges; it panics if v
// is already dead. Callers must own v and every neighbor of v (the
// conflict region always contains both).
func (s *Sharded) RemoveNode(v int) {
	g := s.g
	cv := s.cell(v)
	cv.mu.Lock()
	if !g.Alive(v) {
		cv.mu.Unlock()
		panic(fmt.Sprintf("graph: node %d is not alive", v))
	}
	// The backing array of adj[v] is exclusively ours once the header is
	// cleared, so it can be walked after the lock is dropped.
	nbrs := g.adj[v]
	g.adj[v] = nil
	g.alive[v] = false
	cv.dAliv--
	cv.dArc -= len(nbrs)
	cv.mu.Unlock()
	for _, u := range nbrs {
		cu := s.cell(int(u))
		cu.mu.Lock()
		g.removeArc(int(u), v)
		cu.dArc--
		cu.mu.Unlock()
	}
}

// NumAlive returns the alive-node count, aggregating the per-shard
// deltas cell by cell. Exact when no commits are in flight; otherwise a
// point-in-time aggregate.
func (s *Sharded) NumAlive() int {
	n := s.g.nAliv
	for i := range s.cells {
		c := &s.cells[i]
		c.mu.Lock()
		n += c.dAliv
		c.mu.Unlock()
	}
	return n
}

// NumEdges returns the edge count, aggregating per-shard arc deltas.
// Exact when no commits are in flight (every arc has been counted from
// both endpoints); mid-commit aggregates may be torn across cells.
func (s *Sharded) NumEdges() int {
	arcs := 2 * s.g.nEdge
	for i := range s.cells {
		c := &s.cells[i]
		c.mu.Lock()
		arcs += c.dArc
		c.mu.Unlock()
	}
	return arcs / 2
}

// Sync folds every shard's counter deltas back into the wrapped graph's
// nAliv/nEdge and zeroes them. It must only run with no primitive in
// flight (the scheduler calls it from barriers after draining in-flight
// commits). After Sync the plain Graph is exact and safe for sequential
// use until the next primitive. It also drops the graph's max-degree
// index, which missed every insert since the last barrier; the next
// MaxDegreeNode rebuilds it.
func (s *Sharded) Sync() {
	dAliv, dArc := 0, 0
	for i := range s.cells {
		c := &s.cells[i]
		c.mu.Lock()
		dAliv += c.dAliv
		dArc += c.dArc
		c.dAliv = 0
		c.dArc = 0
		c.mu.Unlock()
	}
	if dArc%2 != 0 {
		panic(fmt.Sprintf("graph: Sync with odd arc delta %d (commit in flight?)", dArc))
	}
	s.g.nAliv += dAliv
	s.g.nEdge += dArc / 2
	s.g.maxIx = nil
}
