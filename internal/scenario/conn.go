package scenario

import "repro/internal/graph"

// ConnTracker answers "has the network stayed connected through every
// event so far?" without paying a full O(n+m) sweep per event.
//
// The soundness argument is local: suppose the graph was connected
// before a deletion (single or batch) of the node set D. Every original
// path that crossed D enters and leaves D through its surviving boundary
// B = N(D) \ D, so the post-deletion graph is connected if and only if
// all of B lies in one component of it (when B is empty, D was the whole
// graph and the empty remainder is trivially connected). The tracker
// therefore checks only the mutual reachability of B.
//
// It does so with a multi-source search: every distinct alive witness
// seeds its own search in one FIFO queue, so the searches grow level by
// level in lockstep. Each node records the search that reached it first
// (owner); an arc between nodes of two different searches unions their
// witnesses in a small union-find, and the check stops as soon as every
// witness is in one set. A self-healer reconnects the boundary with
// edges among (a subset of) B itself, so in the healthy case the sets
// merge while the searches are still scanning the witnesses' own
// adjacency lists — even when B is the few hundred neighbors of a hub,
// where a single-source search would have had to sweep most of the
// graph to meet the last witness. Only an actual partition empties the
// queue, after a full traversal of the witnesses' components, and that
// is the event worth paying for.
//
// For long schedules with very many deletions, even a local search per
// event adds up, so the tracker supports a check cadence: witnesses
// accumulate and one search verifies a whole window of events. Deferral
// is still sound for the latched "always connected" verdict — any path
// in the window-start graph reroutes around each dead node via that
// node's own deletion-time boundary, and a boundary member that itself
// died later contributes its own boundary, recursing to strictly later
// deletions until an alive witness is reached; so if every alive
// witness of the window sits in one component at flush time, the whole
// graph does. What deferral gives up is granularity: a transient
// partition healed within the window is not observed, and FirstBreak
// reports the flush event, not the breaking one. Cadence 1 checks every
// event and has neither caveat.
//
// Insertions keep connectivity whenever the newcomer attaches to at
// least one alive node; they are checked immediately (no search needed).
//
// Once a disconnection is observed the tracker latches: like
// sim.Trial.AlwaysConnected, it reports whether the network has remained
// connected at every (observed) step, so later re-merges do not reset
// it, and no further search work is done.
type ConnTracker struct {
	ok         bool
	firstBreak int // event index of the first observed disconnection, -1
	every      int // check cadence; <= 1 checks at every observation

	pending    []int32 // accumulated boundary witnesses (may repeat, may die)
	sinceCheck int

	// Epoch-stamped scratch: seen[v].epoch==epoch means v was reached
	// this check, by the search of witness set seen[v].owner. Stamps make
	// per-check resets O(1) instead of O(n).
	epoch int32
	seen  []visit
	queue []int32
	// parent is the union-find over this check's witness indices: a
	// root holds minus its set's size, any other entry its parent.
	parent []int32
}

// visit is one node's scratch: the owner is only meaningful while the
// epoch is current. Both fields share a cache line, so the search's
// per-arc test costs one random load.
type visit struct{ epoch, owner int32 }

// NewConnTracker starts tracking g, paying one full connectivity check
// to anchor the induction. every is the check cadence: 1 (or less)
// verifies after every deletion event, k > 1 batches witnesses and
// verifies every k-th observation (and on Flush).
func NewConnTracker(g *graph.Graph, every int) *ConnTracker {
	return &ConnTracker{ok: g.Connected(), firstBreak: -1, every: every}
}

// StillConnected reports whether the graph has stayed connected through
// every event observed so far. Call Flush first if deferred witnesses
// may be pending.
func (t *ConnTracker) StillConnected() bool { return t.ok }

// FirstBreak returns the event index passed to the observation (or
// flush) that first found the graph disconnected, or -1.
func (t *ConnTracker) FirstBreak() int { return t.firstBreak }

// grow resizes the scratch to the graph's current slot count.
func (t *ConnTracker) grow(n int) {
	if len(t.seen) < n {
		t.seen = append(t.seen, make([]visit, n-len(t.seen))...)
	}
}

// AfterDelete observes a healed single deletion: survivors is the dead
// node's surviving G neighborhood (the Deletion snapshot's GNbrs).
func (t *ConnTracker) AfterDelete(g *graph.Graph, survivors []int, event int) {
	t.observe(g, survivors, event)
}

// AfterBatch observes a healed batch kill: boundary is the union of the
// dead set's surviving G neighbors.
func (t *ConnTracker) AfterBatch(g *graph.Graph, boundary []int, event int) {
	t.observe(g, boundary, event)
}

// AfterJoin observes an insertion that attached the newcomer with the
// given number of edges.
func (t *ConnTracker) AfterJoin(g *graph.Graph, attached, event int) {
	if !t.ok {
		return
	}
	if attached == 0 && g.NumAlive() > 1 {
		t.ok = false
		t.firstBreak = event
	}
}

func (t *ConnTracker) observe(g *graph.Graph, witnesses []int, event int) {
	if !t.ok {
		return
	}
	for _, w := range witnesses {
		t.pending = append(t.pending, int32(w))
	}
	t.sinceCheck++
	if t.every <= 1 || t.sinceCheck >= t.every {
		t.Flush(g, event)
	}
}

// Flush verifies all pending witnesses now (one multi-source search)
// and clears the backlog. The runner calls it at trial end; callers
// using a cadence > 1 get it automatically every cadence-th observation.
func (t *ConnTracker) Flush(g *graph.Graph, event int) {
	if !t.ok || len(t.pending) == 0 {
		t.pending = t.pending[:0]
		t.sinceCheck = 0
		return
	}
	t.grow(g.N())
	t.epoch++
	t.queue = t.queue[:0]
	t.parent = t.parent[:0]
	for _, w := range t.pending {
		// Witnesses that died later in the window contributed their own
		// deletion-time boundary to pending; skipping them is what the
		// rerouting argument above licenses.
		if !g.Alive(int(w)) || t.seen[w].epoch == t.epoch {
			continue
		}
		t.seen[w] = visit{t.epoch, int32(len(t.parent))}
		t.parent = append(t.parent, -1)
		t.queue = append(t.queue, w)
	}
	t.pending = t.pending[:0]
	t.sinceCheck = 0
	// The queue holds every witness before any other node, so the
	// searches advance level by level together.
	sets := len(t.parent)
	for head := 0; head < len(t.queue) && sets > 1; head++ {
		v := t.queue[head]
		own := t.find(t.seen[v].owner)
		for _, u := range g.Neighbors(int(v)) {
			m := &t.seen[u]
			if m.epoch != t.epoch {
				*m = visit{t.epoch, own}
				t.queue = append(t.queue, u)
				continue
			}
			if m.owner == own {
				continue
			}
			// u was reached from another witness: merge the two sets if
			// they differ, and point u at its root to shorten later finds.
			r := t.find(m.owner)
			m.owner = r
			if r != own {
				own = t.union(own, r)
				if sets--; sets == 1 {
					break
				}
			}
		}
	}
	// sets == 0 means nothing to connect: every witness had died, so an
	// entire component died with them.
	if sets > 1 {
		t.ok = false
		t.firstBreak = event
	}
}

// find returns the root of witness set a, halving the path.
func (t *ConnTracker) find(a int32) int32 {
	p := t.parent
	for p[a] >= 0 {
		if p[p[a]] >= 0 {
			p[a] = p[p[a]]
		}
		a = p[a]
	}
	return a
}

// union merges the sets with roots a and b, the smaller under the
// larger, and returns the new root.
func (t *ConnTracker) union(a, b int32) int32 {
	p := t.parent
	if p[a] > p[b] {
		a, b = b, a
	}
	p[a] += p[b]
	p[b] = a
	return a
}
