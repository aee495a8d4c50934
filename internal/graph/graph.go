// Package graph implements the dynamic undirected graph substrate used by
// the self-healing simulations.
//
// Nodes are dense integers 0..N-1 allocated at construction time. Deleting
// a node marks it dead and removes its incident edges; the index is never
// reused, which matches the paper's model (the adversary deletes nodes,
// nothing is ever re-inserted) and keeps per-node bookkeeping (initial
// degree, IDs, δ) stable across a run.
//
// Adjacency is stored CSR-style as one sorted []int32 per node, not as
// hash maps: Neighbors hands out the slice itself (zero allocation, zero
// sorting, deterministic iteration by construction), HasEdge is a binary
// search, and insertion keeps the list sorted with an O(degree) memmove —
// cheap at the degree bounds the paper's healers guarantee. All accessors
// that return node collections return them in sorted order so that no
// nondeterminism ever leaks into simulation behavior.
//
// FromEdges and Clone start the rows packed: every row is a cap-limited
// window of one shared backing array, with room to grow to the next
// power of two. A row leaves the array, by append's usual reallocation,
// on its first insert past that room, so it never writes into its
// neighbour's window.
package graph

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"

	"repro/internal/par"
)

// Graph is a dynamic undirected graph over nodes 0..N-1.
type Graph struct {
	adj   [][]int32 // sorted neighbor lists; views escape via Neighbors
	alive []bool
	nAliv int
	nEdge int
	maxIx *maxDegreeIndex // built by the first MaxDegreeNode; nil until then
}

// New returns a graph with n alive, isolated nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative size")
	}
	g := &Graph{
		adj:   make([][]int32, n),
		alive: make([]bool, n),
		nAliv: n,
	}
	for i := range g.alive {
		g.alive[i] = true
	}
	return g
}

// FromEdges returns a graph with n alive nodes and the edges of a flat
// endpoint list, edges[2i]–edges[2i+1] being the i-th edge. It builds
// the graph New plus one AddEdge per edge would, but in bulk: it counts
// the degrees, carves every row from one packed backing array, fills
// the rows in edge order and sorts only the rows that arrived unsorted,
// so a list whose rows arrive ascending (as a BA graph's do) costs
// no sort. It panics, as AddEdge does, on a self-loop, and also on an
// out-of-range endpoint, an odd-length list or a duplicate edge.
func FromEdges(n int, edges []int32) *Graph {
	if len(edges)%2 != 0 {
		panic(fmt.Sprintf("graph: FromEdges with %d endpoints, want pairs", len(edges)))
	}
	g := New(n)
	deg := make([]int32, n)
	for _, x := range edges {
		if x < 0 || int(x) >= n {
			panic(fmt.Sprintf("graph: node %d is not alive", x))
		}
		deg[x]++
	}
	total := 0
	for _, d := range deg {
		total += rowCap(int(d))
	}
	back := make([]int32, total)
	for v, d := range deg {
		g.adj[v], back = window(back, int(d))
	}
	for i := 0; i < len(edges); i += 2 {
		u, v := edges[i], edges[i+1]
		if u == v {
			panic(fmt.Sprintf("graph: self-loop at %d", u))
		}
		g.adj[u] = append(g.adj[u], v)
		g.adj[v] = append(g.adj[v], u)
	}
	for v, row := range g.adj {
		if !ascending(row) {
			slices.Sort(row)
			if !ascending(row) {
				panic(fmt.Sprintf("graph: duplicate edge at node %d", v))
			}
		}
	}
	g.nEdge = len(edges) / 2
	return g
}

// window cuts the room for a packed row of degree d off the front of
// back and returns the empty row and the rest of back. The row is
// cap-limited (a 3-index slice), so an append past its room reallocates
// it instead of writing into the next row's window. A row of degree 0
// stays nil.
func window(back []int32, d int) (row, rest []int32) {
	if d == 0 {
		return nil, back
	}
	k := rowCap(d)
	return back[:0:k], back[k:]
}

// ascending reports whether s is strictly increasing.
func ascending(s []int32) bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// rowCap is the room a packed row of degree d gets: the next power of
// two at or above d, the slack append's doubling would have left.
func rowCap(d int) int {
	if d == 0 {
		return 0
	}
	return 1 << bits.Len(uint(d-1))
}

// N returns the total number of node slots ever allocated (alive or dead).
func (g *Graph) N() int { return len(g.adj) }

// AddNode appends a fresh, alive, isolated node and returns its index.
// Supports churn workloads where the network grows during an attack.
func (g *Graph) AddNode() int {
	v := len(g.adj)
	g.adj = append(g.adj, nil)
	g.alive = append(g.alive, true)
	g.nAliv++
	if g.maxIx != nil {
		g.maxIx.join(v)
	}
	return v
}

// NumAlive returns the number of alive nodes.
func (g *Graph) NumAlive() int { return g.nAliv }

// NumEdges returns the number of edges between alive nodes.
func (g *Graph) NumEdges() int { return g.nEdge }

// Alive reports whether v is a live node.
func (g *Graph) Alive(v int) bool {
	return v >= 0 && v < len(g.adj) && g.alive[v]
}

// checkAlive panics unless v is alive; internal guard for mutating ops.
func (g *Graph) checkAlive(v int) {
	if !g.Alive(v) {
		panic(fmt.Sprintf("graph: node %d is not alive", v))
	}
}

// search returns the insertion position of x in the sorted list s and
// whether x is already present.
func search(s []int32, x int32) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo] == x
}

// insertArc adds v to u's sorted neighbor list at position i (the
// insertion point a prior search returned); v must not be present.
func (g *Graph) insertArc(u, v, i int) {
	s := append(g.adj[u], 0)
	copy(s[i+1:], s[i:])
	s[i] = int32(v)
	g.adj[u] = s
}

// removeArc deletes v from u's sorted neighbor list if present.
func (g *Graph) removeArc(u, v int) bool {
	s := g.adj[u]
	i, ok := search(s, int32(v))
	if !ok {
		return false
	}
	g.adj[u] = append(s[:i], s[i+1:]...)
	return true
}

// AddEdge inserts the undirected edge (u,v) and reports whether it was
// newly added (false if it already existed). It panics on self-loops or
// dead endpoints: both indicate simulation bugs we want to fail loudly on.
func (g *Graph) AddEdge(u, v int) bool {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	g.checkAlive(u)
	g.checkAlive(v)
	iu, ok := search(g.adj[u], int32(v))
	if ok {
		return false
	}
	g.insertArc(u, v, iu)
	iv, _ := search(g.adj[v], int32(u))
	g.insertArc(v, u, iv)
	g.nEdge++
	if g.maxIx != nil {
		g.maxIx.rise(u, len(g.adj[u]))
		g.maxIx.rise(v, len(g.adj[v]))
	}
	return true
}

// RemoveEdge deletes the undirected edge (u,v) and reports whether it
// existed.
func (g *Graph) RemoveEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return false
	}
	if !g.removeArc(u, v) {
		return false
	}
	g.removeArc(v, u)
	g.nEdge--
	return true
}

// HasEdge reports whether the edge (u,v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	_, ok := search(g.adj[u], int32(v))
	return ok
}

// RemoveNode kills v, removing all its incident edges. It panics if v is
// already dead.
func (g *Graph) RemoveNode(v int) {
	g.checkAlive(v)
	for _, u := range g.adj[v] {
		g.removeArc(int(u), v)
		g.nEdge--
	}
	g.adj[v] = nil
	g.alive[v] = false
	g.nAliv--
}

// Degree returns the degree of v (0 for dead or out-of-range nodes).
func (g *Graph) Degree(v int) int {
	if v < 0 || v >= len(g.adj) {
		return 0
	}
	return len(g.adj[v])
}

// Neighbors returns v's neighbors in sorted order as a read-only view of
// the internal adjacency list: no allocation, no sorting. The view is
// invalidated by the next mutation touching v; callers that need a
// durable or mutable copy use AppendNeighbors.
func (g *Graph) Neighbors(v int) []int32 {
	if v < 0 || v >= len(g.adj) {
		return nil
	}
	return g.adj[v]
}

// AppendNeighbors appends v's sorted neighbors to dst as ints and returns
// the extended slice — the copying counterpart to Neighbors for callers
// that keep the result across mutations (e.g. deletion snapshots).
func (g *Graph) AppendNeighbors(dst []int, v int) []int {
	if v < 0 || v >= len(g.adj) {
		return dst
	}
	for _, u := range g.adj[v] {
		dst = append(dst, int(u))
	}
	return dst
}

// AliveNodes returns the sorted list of alive nodes.
func (g *Graph) AliveNodes() []int {
	return g.AppendAliveNodes(make([]int, 0, g.nAliv))
}

// AppendAliveNodes appends the indices of all alive nodes to dst in
// ascending order and returns it — the allocation-free counterpart of
// AliveNodes for callers that reuse a buffer across sweeps.
func (g *Graph) AppendAliveNodes(dst []int) []int {
	for v, ok := range g.alive {
		if ok {
			dst = append(dst, v)
		}
	}
	return dst
}

// Edges returns all edges (u < v) in lexicographic order — free of
// sorting, since every adjacency list is itself sorted.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.nEdge)
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if int(v) > u {
				out = append(out, [2]int{u, int(v)})
			}
		}
	}
	return out
}

// Clone returns a deep copy of g's nodes and edges, its rows packed into
// one backing array as FromEdges packs them. The copy starts without a
// max-degree index; its first MaxDegreeNode builds its own.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		adj:   make([][]int32, len(g.adj)),
		alive: append([]bool(nil), g.alive...),
		nAliv: g.nAliv,
		nEdge: g.nEdge,
	}
	total := 0
	for _, nbrs := range g.adj {
		total += rowCap(len(nbrs))
	}
	back := make([]int32, total)
	for v, nbrs := range g.adj {
		var row []int32
		row, back = window(back, len(nbrs))
		c.adj[v] = append(row, nbrs...)
	}
	return c
}

// Equal reports whether g and h have identical alive sets and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() || g.nAliv != h.nAliv || g.nEdge != h.nEdge {
		return false
	}
	for v := range g.adj {
		if g.alive[v] != h.alive[v] || len(g.adj[v]) != len(h.adj[v]) {
			return false
		}
		for i, u := range g.adj[v] {
			if h.adj[v][i] != u {
				return false
			}
		}
	}
	return true
}

// BFS returns the hop distance from src to every node reachable through
// alive nodes; unreachable (and dead) nodes get -1. It allocates a fresh
// distance slice; hot paths use BFSInto with reused scratch instead.
func (g *Graph) BFS(src int) []int32 {
	dist := make([]int32, len(g.adj))
	g.BFSInto(src, dist, nil)
	return dist
}

// BFSInto computes the hop distances from src into dist, whose length
// must be g.N(): reachable nodes get their distance, unreachable (and
// dead) nodes -1. queue is scratch space for the traversal frontier; the
// possibly-regrown queue is returned so callers can reuse it across
// calls, making repeated BFS allocation-free.
func (g *Graph) BFSInto(src int, dist []int32, queue []int32) []int32 {
	if len(dist) != len(g.adj) {
		panic(fmt.Sprintf("graph: BFSInto dist length %d, want %d", len(dist), len(g.adj)))
	}
	for i := range dist {
		dist[i] = -1
	}
	queue = queue[:0]
	if !g.Alive(src) {
		return queue
	}
	dist[src] = 0
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		d := dist[v] + 1
		for _, u := range g.adj[v] {
			if dist[u] == -1 {
				dist[u] = d
				queue = append(queue, u)
			}
		}
	}
	return queue
}

// Marks is an epoch-stamped visited set over node IDs with reusable
// storage: Reset forgets every mark in O(1) (amortized), so a walk per
// event on a 10⁶-node graph costs only the nodes it touches.
type Marks struct {
	stamp []int32
	epoch int32
}

// Reset clears every mark and sizes the set for node IDs below n.
func (m *Marks) Reset(n int) {
	for len(m.stamp) < n {
		m.stamp = append(m.stamp, 0)
	}
	if m.epoch == math.MaxInt32 {
		clear(m.stamp)
		m.epoch = 0
	}
	m.epoch++
}

// Mark marks v and reports whether it was unmarked.
func (m *Marks) Mark(v int) bool {
	if m.stamp[v] == m.epoch {
		return false
	}
	m.stamp[v] = m.epoch
	return true
}

// BFSBall returns up to size alive nodes forming a breadth-first ball
// around center, center first — the correlated-failure shape of a rack
// or region going down. If center's component is smaller than size the
// whole component is returned; a dead or out-of-range center gives nil.
// m is the caller's reusable visited set; every ball in the repository
// comes from this walk, so the ball semantics cannot drift apart.
func (g *Graph) BFSBall(m *Marks, center, size int) []int {
	if size <= 0 || !g.Alive(center) {
		return nil
	}
	m.Reset(g.N())
	m.Mark(center)
	ball := make([]int, 1, min(size, g.NumAlive()))
	ball[0] = center
	for head := 0; head < len(ball) && len(ball) < size; head++ {
		for _, u := range g.adj[ball[head]] {
			if m.Mark(int(u)) {
				ball = append(ball, int(u))
				if len(ball) == size {
					break
				}
			}
		}
	}
	return ball
}

// ComponentLabels assigns each alive node a component label (the smallest
// node index in its component); dead nodes get -1.
func (g *Graph) ComponentLabels() []int {
	label := make([]int, len(g.adj))
	for i := range label {
		label[i] = -1
	}
	var queue []int32
	for v := range g.adj {
		if !g.alive[v] || label[v] != -1 {
			continue
		}
		label[v] = v
		queue = append(queue[:0], int32(v))
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			for _, u := range g.adj[x] {
				if label[u] == -1 {
					label[u] = v
					queue = append(queue, u)
				}
			}
		}
	}
	return label
}

// NumComponents returns the number of connected components among alive
// nodes (0 for an empty graph).
func (g *Graph) NumComponents() int {
	labels := g.ComponentLabels()
	n := 0
	for v, l := range labels {
		if l == v && g.alive[v] {
			n++
		}
	}
	return n
}

// Connected reports whether the alive part of the graph is connected.
// Graphs with zero or one alive node are connected.
func (g *Graph) Connected() bool {
	return g.NumComponents() <= 1
}

// IsForest reports whether the alive part of g is acyclic.
// A graph is a forest iff edges = aliveNodes - components.
func (g *Graph) IsForest() bool {
	return g.nEdge == g.nAliv-g.NumComponents()
}

// IsSubgraphOf reports whether every alive node and edge of g also exists
// in h. Used to verify the invariant E' ⊆ E.
func (g *Graph) IsSubgraphOf(h *Graph) bool {
	if g.N() != h.N() {
		return false
	}
	for v := range g.adj {
		if !g.alive[v] {
			continue
		}
		if !h.Alive(v) {
			return false
		}
		for _, u := range g.adj[v] {
			if !h.HasEdge(v, int(u)) {
				return false
			}
		}
	}
	return true
}

// MaxDegreeNode returns the alive node with the largest degree, breaking
// ties by the smallest index. It returns -1 for an empty graph.
//
// It is not a pure read: the first call builds g's max-degree index in
// O(n), and every call tidies that index as it answers (amortized
// O(log n) per degree change since the last call). So it falls under the
// same single-owner rule as AddEdge: no other goroutine may read or
// mutate g during the call.
func (g *Graph) MaxDegreeNode() int {
	if g.maxIx == nil {
		g.maxIx = newMaxDegreeIndex(g)
	}
	return g.maxIx.max()
}

// MaxDegree returns the largest degree among alive nodes (0 if empty).
// It asks MaxDegreeNode, so the same single-owner rule applies.
func (g *Graph) MaxDegree() int {
	v := g.MaxDegreeNode()
	if v < 0 {
		return 0
	}
	return g.Degree(v)
}

// SweepWorkers overrides the fan-out of the all-sources sweeps
// (AllDistances, Diameter): 0 means runtime.NumCPU(). The result of a
// sweep is identical at any setting; this is a wall-clock (and test)
// knob only. It must not be changed while a sweep is running.
var SweepWorkers = 0

// sweepSources returns the sources of an all-sources sweep, the node
// indices 0..n-1; how many MultiBFSWidth-source batches cover them; and
// how many workers the batches fan out across: the caller's positive
// workers, else SweepWorkers, else every CPU, but never more than the
// batches.
func sweepSources(n, workers int) (ids []int, batches, w int) {
	ids = make([]int, n)
	for v := range ids {
		ids[v] = v
	}
	batches = (n + MultiBFSWidth - 1) / MultiBFSWidth
	w = workers
	if w <= 0 {
		w = SweepWorkers
	}
	if w <= 0 {
		w = runtime.NumCPU()
	}
	return ids, batches, min(w, batches)
}

// AllDistances computes all-pairs shortest-path distances between alive
// nodes by running MultiBFSInto over every node in batches of
// MultiBFSWidth sources, fanned out across all CPUs (each batch's rows
// are owned by exactly one worker, so the result is identical at any
// parallelism). Entry [u][v] is -1 when u or v is dead or unreachable.
// The rows share one flat n² int32 block; callers are expected to bound
// n.
func (g *Graph) AllDistances() [][]int32 {
	return g.AllDistancesWorkers(0)
}

// AllDistancesWorkers is AllDistances with an explicit fan-out:
// workers <= 0 uses SweepWorkers/NumCPU, 1 runs serially. Callers that
// are themselves inside a worker pool (e.g. parallel experiment trials)
// pass 1 to avoid oversubscribing the machine workers² ways.
func (g *Graph) AllDistancesWorkers(workers int) [][]int32 {
	n := len(g.adj)
	out := make([][]int32, n)
	if n == 0 {
		return out
	}
	flat := make([]int32, n*n)
	for v := range out {
		out[v] = flat[v*n : (v+1)*n : (v+1)*n]
	}
	ids, batches, workers := sweepSources(n, workers)
	scratch := make([]MultiBFSScratch, workers)
	par.Do(batches, workers, func(w, b int) {
		lo, hi := b*MultiBFSWidth, min((b+1)*MultiBFSWidth, n)
		g.MultiBFSInto(ids[lo:hi], out[lo:hi], nil, &scratch[w])
	})
	return out
}

// Diameter returns the largest finite pairwise distance among alive nodes
// (0 for empty or singleton graphs). Disconnected pairs are ignored. The
// sweep runs MultiBFSInto over batches of MultiBFSWidth sources, fanned
// out across all CPUs, and keeps only each source's eccentricity, so it
// writes no distance rows. Each batch owns its slice of eccentricities,
// so the answer is deterministic at any parallelism.
func (g *Graph) Diameter() int {
	n := len(g.adj)
	if n == 0 {
		return 0
	}
	ids, batches, workers := sweepSources(n, 0)
	ecc := make([]int32, n)
	scratch := make([]MultiBFSScratch, workers)
	par.Do(batches, workers, func(w, b int) {
		lo, hi := b*MultiBFSWidth, min((b+1)*MultiBFSWidth, n)
		g.MultiBFSInto(ids[lo:hi], nil, ecc[lo:hi], &scratch[w])
	})
	return int(max(0, slices.Max(ecc)))
}
