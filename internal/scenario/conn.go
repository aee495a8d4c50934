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
// It does so with graph.Region.Components over G: every distinct alive
// witness seeds its own search in one FIFO queue, searches that meet are
// merged in Region's union-find, and the check stops as soon as at most
// one merged search is still growing. A self-healer reconnects the
// boundary with edges among (a subset of) B itself, so in the healthy
// case the searches merge while they are still scanning the witnesses'
// own adjacency lists — even when B is the few hundred neighbors of a
// hub, where a single-source search would have had to sweep most of the
// graph to meet the last witness. An actual partition ends the check
// once every side but the largest has run dry, rather than after a full
// traversal; the largest side's search has grown as many BFS levels by
// then.
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
// Once a disconnection is observed the tracker latches: it reports
// whether the network has remained connected at every (observed) step
// (TrialResult.AlwaysConnected, and through it sim.Trial's), so later
// re-merges do not reset it, and no further search work is done.
type ConnTracker struct {
	ok         bool
	firstBreak int // event index of the first observed disconnection, -1
	every      int // check cadence; <= 1 checks at every observation

	pending    []int // accumulated boundary witnesses (may repeat, may die)
	sinceCheck int

	region graph.Region // the search's scratch
}

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

// AfterDelete observes a healed single deletion: survivors is the dead
// node's surviving G neighborhood (the Deletion snapshot's GNbrs).
func (t *ConnTracker) AfterDelete(g *graph.Graph, survivors []int, event int) {
	t.observe(g, survivors, event)
}

// AfterBatch observes a healed batch kill: boundary holds the dead
// set's G neighbors as they were before the kill. Members of the dead
// set and repeats may be left in; the check skips them.
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
	t.pending = append(t.pending, witnesses...)
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
	// Witnesses that died later in the window contributed their own
	// deletion-time boundary to pending; skipping them is what the
	// rerouting argument above licenses. Components skips repeats.
	alive := t.pending[:0]
	for _, w := range t.pending {
		if g.Alive(w) {
			alive = append(alive, w)
		}
	}
	t.pending = t.pending[:0]
	t.sinceCheck = 0
	// No alive witness means nothing to connect: an entire component
	// died with the window's victims.
	for _, c := range t.region.Components(g, alive) {
		if c != 0 {
			t.ok = false
			t.firstBreak = event
			return
		}
	}
}
