package dist

// The epoch pipeline: the supervisor-side scheduler that replaced the
// global quiescence barrier. Every operation (kill, join, batch kill)
// becomes an epoch with a fresh ID; all of an epoch's messages carry
// that ID (handlers stamp their sends with the epoch of the message
// they are processing), so the per-epoch conservation counters in the
// tracker tell the scheduler exactly when one epoch's current stage has
// drained — without ever requiring the whole network to go quiet.
//
// # Why overlapping epochs stay bit-identical to the sequential engine
//
// The scheduler maintains a mirror of G and G′ (updated only at epoch
// completion, from the operation itself plus the attach orders the
// transport recorded for the epoch) and computes for each operation a
// conflict region (graph.Region, the definition internal/core's sharded
// scheduler shares) — an over-approximation of every node whose state
// the epoch may read or write:
//
//	region(kill x)    = {x} ∪ N_G(x) ∪ (G′ components of those nodes)
//	region(join A,v)  = A ∪ {v}
//	region(batch V)   = V ∪ N_G(V) ∪ (G′ components of those nodes)
//
// The G′-component closure is what confines a MINID flood: the wave
// travels only the merged post-heal G′ component of the reconnection
// set, which is a subset of the union of the members' pre-heal
// components plus the healing edges — all inside the region. Every
// sender of an epoch's messages is inside the region too, so an epoch
// can never address a node that a disjoint epoch has removed. The only
// messages that land outside a region are one-hop "ring" writes — the
// Lemma 8 label notifications and NoN gossip to neighbors of region
// members. Those update the recipient's view of the *sender* (a region
// member), never state a disjoint epoch reads: any epoch that reads a
// node's label or neighborhood has that node in its own region, and
// overlapping regions are never run concurrently. Stale cross-epoch
// floods are impossible for the same reason; the node-side
// victim/floodRound stale checks (see node.onLabelFlood) remain as the
// compensation backstop and are what the model checker exercises.
//
// Two epochs conflict iff their regions intersect (or either is
// "universal", the fallback when a region would exceed regionCap).
// Conflicting epochs are chained in issue order — so any pair of
// operations that could observe each other executes in exactly the
// sequential order — and disjoint epochs run fully concurrently.
//
// A subtlety: an epoch's true read/write set at *launch* time can be
// larger than at issue time, because a conflicting predecessor may have
// merged G′ components into its own region. Recomputing regions at
// launch would be unsound the other way (later epochs checked against
// the stale issue-time region). Instead each epoch freezes an
// *effective* region at issue: its tentative region unioned with the
// effective regions of everything it conflicts with. Growth is only
// ever into a dependency's region, so the frozen closure is a sound
// over-approximation for every later conflict check.
//
// Batch epochs stage exactly as before (die → cluster probe → collect →
// commit → stop), but each dead cluster's heal then runs under its own
// child epoch: cluster regions (candidates plus their post-deletion G′
// components, computed on the mirror) let disjoint clusters heal
// concurrently, while intersecting clusters chain in ascending root
// order — the sequential engine's order.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
)

// defaultRegionCap bounds conflict-region size. An epoch whose region
// would grow past the cap is marked universal — it conflicts with
// everything, degrading that one operation to the old barrier behavior
// instead of making the scheduler pay O(n) region bookkeeping per op.
const defaultRegionCap = 512

type epochKind uint8

const (
	epKill epochKind = iota
	epJoin
	epBatch
	epCluster // one batch cluster's heal, a child of an epBatch epoch
	epRecover // crash recovery: heals around a crashed node (+ an aborted kill's victim)
)

func (k epochKind) String() string {
	switch k {
	case epKill:
		return "kill"
	case epJoin:
		return "join"
	case epBatch:
		return "batch"
	case epCluster:
		return "cluster-heal"
	case epRecover:
		return "crash-recovery"
	}
	return "unknown"
}

// Epoch is the caller-facing handle for one scheduled operation.
type Epoch struct {
	id   uint64
	desc string
	nw   *Network
	done chan struct{}
}

// ID returns the epoch's network-unique identifier (the value carried
// in the epoch field of all its messages).
func (ep *Epoch) ID() uint64 { return ep.id }

// Done reports whether the epoch has completed.
func (ep *Epoch) Done() bool {
	select {
	case <-ep.done:
		return true
	default:
		return false
	}
}

// Wait blocks until the epoch completes or the timeout elapses. The
// timeout error carries the network's diagnostic dump — per-epoch
// in-flight counters, epoch stages, and mailbox backlogs.
func (ep *Epoch) Wait(timeout time.Duration) error {
	return ep.waitDeadline(time.Now().Add(timeout))
}

func (ep *Epoch) waitDeadline(deadline time.Time) error {
	select {
	case <-ep.done:
		return nil
	default:
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-ep.done:
		return nil
	case <-timer.C:
		return ep.nw.stallError(ep.id, ep.desc, 0)
	}
}

// epochState is the scheduler's record of one epoch.
type epochState struct {
	id     uint64
	kind   epochKind
	stage  string // current stage, for diagnostics and dispatch
	handle *Epoch

	// Conflict scheduling. region is the frozen effective region
	// (nil when universal); deps are the incomplete epochs this one must
	// wait for, in issue order.
	region    map[int]struct{}
	universal bool
	deps      map[uint64]struct{}
	launched  bool
	completed bool

	// Crash recovery (recovery.go). aborted marks a kill epoch torn by a
	// mid-epoch crash: when its in-flight traffic drains it abort-
	// finishes (cleanup, no heal) instead of completing. floodStarted is
	// set — under pi.mu, before the first flood message is sent — once
	// the epoch's MINID wave has begun, the point of no return past
	// which the crash machinery must defer rather than abort. adopts
	// are the handles of aborted epochs a recovery epoch completes on
	// behalf of (a Wait on an aborted kill epoch returns when the
	// recovery that subsumed it finishes).
	aborted      bool
	floodStarted bool
	adopts       []*Epoch

	// Kill payload.
	victim int

	// Join payload.
	newID      int
	joinInitID uint64
	attach     []int
	attachInfo map[int]uint64

	// Batch payload.
	batch        []int
	batchSet     map[int]struct{}
	clusters     []*epochState // epCluster children, ascending root order
	clustersLeft int

	// Cluster-child payload.
	parent *epochState
	root   int
	leader int
}

// pipeline is the epoch scheduler.
type pipeline struct {
	mu sync.Mutex
	nw *Network

	serial    bool // every epoch universal: the old barrier, for baselines
	regionCap int

	nextEpoch uint64
	epochs    map[uint64]*epochState // incomplete epochs (incl. cluster children)
	order     []uint64               // incomplete top-level epochs, issue order

	// pendingVictim maps a node to the incomplete epoch that will kill
	// it, so double-kills and joins to doomed nodes panic at issue time
	// exactly as they would against the sequential engine's state.
	pendingVictim map[int]uint64

	// mirG/mirGp mirror the healed topology as of the completed epochs —
	// exactly the sequential engine's state at the same prefix of the
	// issue order, which is what makes region computations sound.
	mirG, mirGp *graph.Graph
	regionBuf   graph.Region // growRegion's scratch

	// releases holds supervisor counter holds to drop once the current
	// caller leaves the lock; flushing marks a flush loop in progress.
	releases []uint64
	flushing bool

	// effLog is the effective-operation log: the sequence of operations
	// that actually mutated the network, in oracle order. Issue paths
	// append; a crash expunges the aborted kill's entry and appends the
	// recovery batch (see recovery.go for why appending is sound).
	// crashed marks nodes fail-stopped by the chaos transport;
	// recovering is true while a recovery epoch is incomplete (at most
	// one recovery is ever in flight).
	effLog     []effEntry
	crashed    map[int]bool
	recovering bool

	attachMu  sync.Mutex
	attachRec map[uint64][][2]int // per-epoch attach edges seen by transport
}

func newPipeline(nw *Network, g *graph.Graph) *pipeline {
	mirGp := graph.New(g.N())
	for v := 0; v < g.N(); v++ {
		if !g.Alive(v) {
			mirGp.RemoveNode(v)
		}
	}
	return &pipeline{
		nw:            nw,
		regionCap:     defaultRegionCap,
		nextEpoch:     1, // epoch 0 is the untracked-traffic sentinel
		epochs:        make(map[uint64]*epochState),
		pendingVictim: make(map[int]uint64),
		mirG:          g.Clone(),
		mirGp:         mirGp,
		attachRec:     make(map[uint64][][2]int),
		crashed:       make(map[int]bool),
	}
}

// recordAttach notes a healing edge ordered under an epoch; replayed
// into the mirror when the epoch completes. Called from node handlers on
// any worker via the transport, so it uses its own small lock.
func (pi *pipeline) recordAttach(epoch uint64, a, b int) {
	if epoch == 0 {
		return // raw test traffic; nothing schedules against it
	}
	pi.attachMu.Lock()
	pi.attachRec[epoch] = append(pi.attachRec[epoch], [2]int{a, b})
	pi.attachMu.Unlock()
}

// takeAttach removes and returns an epoch's recorded healing edges.
func (pi *pipeline) takeAttach(epoch uint64) [][2]int {
	pi.attachMu.Lock()
	rec := pi.attachRec[epoch]
	delete(pi.attachRec, epoch)
	pi.attachMu.Unlock()
	return rec
}

// ---- region computation (pi.mu held) ----

// growRegion returns seeds ∪ (the mirror-G′ components of all seeds),
// or (nil, false) when the region would exceed the cap.
func (pi *pipeline) growRegion(seeds []int) (map[int]struct{}, bool) {
	if _, ok := pi.regionBuf.Grow(pi.mirGp, seeds, pi.regionCap, nil); !ok {
		return nil, false
	}
	region := make(map[int]struct{}, len(pi.regionBuf.Nodes))
	for _, v := range pi.regionBuf.Nodes {
		region[int(v)] = struct{}{}
	}
	return region, true
}

func intersects(a, b map[int]struct{}) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for v := range a {
		if _, ok := b[v]; ok {
			return true
		}
	}
	return false
}

// chain applies the scheduler's one dependency rule to es, whose
// tentative region is set, against the incomplete epochs issued before
// it (earlier, in issue order, all registered in pi.epochs). es waits
// for every epoch it conflicts with — regions intersect, or either is
// universal — and its frozen effective region absorbs theirs, turning
// universal when a dependency is or when the union outgrows the cap. A
// universal epoch then waits for every earlier epoch, including those
// the pass skipped before it turned universal.
func (pi *pipeline) chain(es *epochState, earlier []uint64) {
	es.deps = make(map[uint64]struct{})
	for _, eid := range earlier {
		other := pi.epochs[eid]
		if es.universal || other.universal || intersects(es.region, other.region) {
			es.deps[eid] = struct{}{}
			if other.universal {
				es.universal, es.region = true, nil
			}
			if !es.universal {
				for v := range other.region {
					es.region[v] = struct{}{}
				}
				if len(es.region) > pi.regionCap {
					es.universal, es.region = true, nil
				}
			}
		}
	}
	if es.universal {
		for _, eid := range earlier {
			es.deps[eid] = struct{}{}
		}
	}
}

// enqueue computes the epoch's dependencies and frozen effective region
// against every incomplete top-level epoch, registers it, and launches
// it when nothing blocks it. Caller must flush() after unlocking.
func (pi *pipeline) enqueue(es *epochState) {
	if pi.serial {
		es.universal, es.region = true, nil
	}
	pi.chain(es, pi.order)
	pi.epochs[es.id] = es
	pi.order = append(pi.order, es.id)
	if len(es.deps) == 0 {
		pi.launch(es)
	}
}

// ---- supervisor counter holds ----

// stageSend performs a stage's supervisor sends while holding an extra
// count on the epoch's conservation counter, so the counter cannot hit
// zero (and re-enter the scheduler) until the hold is released by
// flush() — after the caller has left pi.mu. This also makes stages
// with zero sends (an empty join) complete through the normal path.
func (pi *pipeline) stageSend(es *epochState, send func()) {
	pi.nw.track.add(es.id, 1)
	send()
	pi.releases = append(pi.releases, es.id)
}

// flush drops queued supervisor holds outside pi.mu. Dropping a hold
// can synchronously re-enter onEpochZero and queue further holds; the
// outermost flush drains them all, and nested calls return immediately.
func (pi *pipeline) flush() {
	pi.mu.Lock()
	if pi.flushing {
		pi.mu.Unlock()
		return
	}
	pi.flushing = true
	for len(pi.releases) > 0 {
		id := pi.releases[0]
		pi.releases = pi.releases[1:]
		pi.mu.Unlock()
		pi.nw.track.done(id)
		pi.mu.Lock()
	}
	pi.flushing = false
	pi.mu.Unlock()
}

// ---- issue paths ----

// issueKill schedules the deletion of v, or returns nil for an invalid
// victim: out of range, dead, crashed or doomed. Validity and issue are
// atomic under pi.mu, so a chaos crash cannot invalidate the check
// mid-issue.
func (pi *pipeline) issueKill(v int) *Epoch {
	pi.mu.Lock()
	pi.nw.mu.Lock()
	bad := v < 0 || v >= pi.nw.n || pi.nw.dead[v]
	pi.nw.mu.Unlock()
	if _, doomed := pi.pendingVictim[v]; bad || doomed || pi.crashed[v] {
		pi.mu.Unlock()
		return nil
	}
	es := &epochState{
		id:     pi.nextEpoch,
		kind:   epKill,
		victim: v,
	}
	pi.nextEpoch++
	es.handle = &Epoch{id: es.id, desc: fmt.Sprintf("kill %d", v), nw: pi.nw, done: make(chan struct{})}
	seeds := append(pi.mirG.AppendNeighbors(nil, v), v)
	es.region, _ = pi.growRegion(seeds)
	es.universal = es.region == nil
	pi.pendingVictim[v] = es.id
	pi.effLog = append(pi.effLog, effEntry{epoch: es.id, op: Op{Kind: OpKill, Victim: v}})
	pi.enqueue(es)
	pi.mu.Unlock()
	pi.flush()
	return es.handle
}

// issueJoin schedules a join and returns its slot, or (-1, nil) for an
// attach target out of range, dead, crashed or doomed (atomic with the
// issue, see issueKill).
func (pi *pipeline) issueJoin(attachTo []int, id uint64) (int, *Epoch) {
	// Dedupe while preserving order (core.Join tolerates duplicates
	// too: the second AddEdge is a no-op).
	attach := make([]int, 0, len(attachTo))
	for _, u := range attachTo {
		dup := false
		for _, w := range attach {
			dup = dup || w == u
		}
		if !dup {
			attach = append(attach, u)
		}
	}

	pi.mu.Lock()
	nw := pi.nw
	nw.mu.Lock()
	for _, u := range attach {
		_, doomed := pi.pendingVictim[u]
		if u < 0 || u >= nw.n || nw.dead[u] || doomed || pi.crashed[u] {
			nw.mu.Unlock()
			pi.mu.Unlock()
			return -1, nil
		}
	}
	// Allocate the slot at issue time so indices follow issue order —
	// the sequential engine's AddNode order — even while earlier epochs
	// are still draining.
	v := nw.n
	nw.n++
	nw.dead = append(nw.dead, false)
	nw.exited = append(nw.exited, false)
	nw.deadStats = append(nw.deadStats, finalStats{})
	nw.initIDs = append(nw.initIDs, id)
	attachInfo := make(map[int]uint64, len(attach))
	nd := newNode(nw, v, id, len(attach))
	for _, u := range attach {
		attachInfo[u] = nw.initIDs[u]
		// The target's current label and neighborhood arrive with its
		// msgJoinAck; until then only the immutable ID is known.
		nd.gNbrs[u] = &nbrInfo{initID: nw.initIDs[u]}
	}
	nw.appendNode(nd)
	nw.mu.Unlock()

	if got := pi.mirG.AddNode(); got != v {
		panic(fmt.Sprintf("dist: mirror slot %d for node %d", got, v))
	}
	if got := pi.mirGp.AddNode(); got != v {
		panic(fmt.Sprintf("dist: mirror slot %d for node %d", got, v))
	}

	es := &epochState{
		id:         pi.nextEpoch,
		kind:       epJoin,
		newID:      v,
		joinInitID: id,
		attach:     attach,
		attachInfo: attachInfo,
	}
	pi.nextEpoch++
	es.handle = &Epoch{id: es.id, desc: fmt.Sprintf("join %d", v), nw: nw, done: make(chan struct{})}
	// A join reads only its targets' labels and neighborhoods and writes
	// only edges among {v} ∪ attach; no G′ closure is involved.
	es.region = make(map[int]struct{}, len(attach)+1)
	es.region[v] = struct{}{}
	for _, u := range attach {
		es.region[u] = struct{}{}
	}
	pi.effLog = append(pi.effLog, effEntry{epoch: es.id, op: Op{
		Kind: OpJoin, NewID: v, InitID: id, Attach: append([]int(nil), attach...),
	}})
	pi.enqueue(es)
	pi.mu.Unlock()
	pi.flush()
	return v, es.handle
}

// issueBatch schedules the deletion of every node in vs at once, or
// returns nil when a victim is out of range, dead, crashed or doomed
// (atomic with the issue, see issueKill). Duplicates are ignored.
func (pi *pipeline) issueBatch(vs []int) *Epoch {
	set := make(map[int]struct{}, len(vs))
	batch := make([]int, 0, len(vs))

	pi.mu.Lock()
	nw := pi.nw
	nw.mu.Lock()
	for _, v := range vs {
		if _, dup := set[v]; dup {
			continue
		}
		_, doomed := pi.pendingVictim[v]
		if v < 0 || v >= nw.n || nw.dead[v] || doomed || pi.crashed[v] {
			nw.mu.Unlock()
			pi.mu.Unlock()
			return nil
		}
		set[v] = struct{}{}
		batch = append(batch, v)
	}
	nw.mu.Unlock()
	if len(batch) == 0 {
		// An empty batch is still a round, as in the sequential engine.
		pi.effLog = append(pi.effLog, effEntry{op: Op{Kind: OpBatch}})
		pi.mu.Unlock()
		nw.mu.Lock()
		nw.rounds++
		nw.mu.Unlock()
		done := make(chan struct{})
		close(done)
		return &Epoch{desc: "empty batch", nw: nw, done: done}
	}

	es := &epochState{
		id:       pi.nextEpoch,
		kind:     epBatch,
		batch:    batch,
		batchSet: set,
	}
	pi.nextEpoch++
	es.handle = &Epoch{id: es.id, desc: fmt.Sprintf("batch kill of %d nodes", len(batch)), nw: nw, done: make(chan struct{})}
	seeds := append([]int(nil), batch...)
	for _, v := range batch {
		seeds = pi.mirG.AppendNeighbors(seeds, v)
	}
	es.region, _ = pi.growRegion(seeds)
	es.universal = es.region == nil
	for _, v := range batch {
		pi.pendingVictim[v] = es.id
	}
	pi.effLog = append(pi.effLog, effEntry{epoch: es.id, op: Op{
		Kind: OpBatch, Batch: append([]int(nil), batch...),
	}})
	pi.enqueue(es)
	pi.mu.Unlock()
	pi.flush()
	return es.handle
}

// ---- launch & stage machine (pi.mu held throughout) ----

func (pi *pipeline) launch(es *epochState) {
	es.launched = true
	switch es.kind {
	case epKill:
		es.stage = "heal"
		pi.stageSend(es, func() {
			pi.nw.send(es.victim, message{kind: msgDie, from: srcSupervisor, epoch: es.id})
		})
	case epJoin:
		es.stage = "join"
		pi.stageSend(es, func() {
			for _, u := range es.attach {
				pi.nw.send(u, message{
					kind: msgJoinReq, from: es.newID, epoch: es.id,
					nonPeerInitID: es.joinInitID, nonNbrs: es.attachInfo,
				})
			}
		})
	case epBatch:
		// The die stage is separate from the probe stage so that no
		// victim can receive a cluster probe before it has learned the
		// victim set.
		es.stage = "die"
		pi.stageSend(es, func() { pi.broadcastBatch(es, msgBatchDie) })
	case epCluster:
		es.stage = fmt.Sprintf("probe[%d]", es.root)
		pi.stageSend(es, func() {
			pi.nw.send(es.leader, message{kind: msgBatchHealStart, from: srcSupervisor, epoch: es.id, victim: es.root})
		})
	case epRecover:
		pi.launchRecover(es)
	}
}

func (pi *pipeline) broadcastBatch(es *epochState, kind msgKind) {
	for _, v := range es.batch {
		pi.nw.send(v, message{kind: kind, from: srcSupervisor, epoch: es.id, batch: es.batchSet})
	}
}

// onEpochZero is the tracker's callback: the epoch's conservation
// counter hit zero, i.e. its current stage fully drained.
func (pi *pipeline) onEpochZero(epoch uint64) {
	pi.mu.Lock()
	es := pi.epochs[epoch]
	if es == nil || !es.launched || es.completed {
		// Epoch 0 (untracked traffic), an already-completed epoch's
		// stray zero, or a not-yet-launched epoch: nothing to advance.
		pi.mu.Unlock()
		return
	}
	pi.advance(es)
	pi.mu.Unlock()
	pi.flush()
}

func (pi *pipeline) advance(es *epochState) {
	if es.aborted {
		// A kill epoch torn by a crash: its traffic (abort orders and
		// retraction gossip included) has drained; retire it unhealed.
		pi.abortFinish(es)
		return
	}
	switch es.kind {
	case epKill:
		pi.completeKill(es)
	case epJoin:
		pi.completeJoin(es)
	case epBatch:
		pi.advanceBatch(es)
	case epCluster:
		pi.advanceCluster(es)
	case epRecover:
		pi.advanceRecover(es)
	}
}

func (pi *pipeline) completeKill(es *epochState) {
	pi.nw.foldFloodDepth(es.id)
	pi.nw.mu.Lock()
	pi.nw.dead[es.victim] = true
	pi.nw.rounds++
	pi.nw.mu.Unlock()
	pi.mirG.RemoveNode(es.victim)
	pi.mirGp.RemoveNode(es.victim)
	pi.applyAttach(es.id)
	pi.finish(es)
}

func (pi *pipeline) completeJoin(es *epochState) {
	for _, u := range es.attach {
		if !pi.mirG.HasEdge(es.newID, u) {
			pi.mirG.AddEdge(es.newID, u)
		}
	}
	pi.finish(es)
}

// applyAttach replays an epoch's healing edges into the mirror: each
// attach order wires G′ and, when absent, G.
func (pi *pipeline) applyAttach(epoch uint64) {
	for _, e := range pi.takeAttach(epoch) {
		a, b := e[0], e[1]
		if !pi.mirG.Alive(a) || !pi.mirG.Alive(b) {
			continue // an endpoint died in a later-completed epoch
		}
		if !pi.mirG.HasEdge(a, b) {
			pi.mirG.AddEdge(a, b)
		}
		if !pi.mirGp.HasEdge(a, b) {
			pi.mirGp.AddEdge(a, b)
		}
	}
}

func (pi *pipeline) advanceBatch(es *epochState) {
	switch es.stage {
	case "die":
		es.stage = "cluster-probe"
		pi.stageSend(es, func() { pi.broadcastBatch(es, msgBatchProbe) })
	case "cluster-probe":
		es.stage = "collect"
		pi.stageSend(es, func() { pi.broadcastBatch(es, msgBatchCollect) })
	case "collect":
		es.stage = "commit"
		pi.stageSend(es, func() { pi.broadcastBatch(es, msgBatchCommit) })
	case "commit":
		// Survivors have processed every tombstone. Mark the victims
		// dead, derive the clusters (which needs the pre-removal
		// mirror), drop the victims from the mirror, and reap zombies.
		pi.prepareClusters(es)
		pi.nw.mu.Lock()
		for _, v := range es.batch {
			pi.nw.dead[v] = true
		}
		pi.nw.mu.Unlock()
		for _, v := range es.batch {
			pi.mirG.RemoveNode(v)
			pi.mirGp.RemoveNode(v)
		}
		es.stage = "stop"
		pi.stageSend(es, func() { pi.broadcastBatch(es, msgStop) })
	case "stop":
		pi.scheduleClusters(es)
	}
}

// deadClusters derives a batch's dead clusters and their healing
// candidates from the pre-removal mirror — the supervisor-side analogue
// of core.ClusterDeletions. A cluster is a component of the
// victim–victim mirror edges, rooted at its smallest member; its
// candidates are the surviving mirror neighbors of any member. roots
// comes back ascending and cands[i], ascending, belongs to roots[i].
func (pi *pipeline) deadClusters(es *epochState) (roots []int, cands [][]int) {
	parent := make(map[int]int, len(es.batch))
	find := func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for _, v := range es.batch {
		parent[v] = v
	}
	for _, v := range es.batch {
		for _, u32 := range pi.mirG.Neighbors(v) {
			u := int(u32)
			if _, dead := es.batchSet[u]; !dead {
				continue
			}
			a, b := find(v), find(u)
			if a != b {
				if a > b {
					a, b = b, a
				}
				parent[b] = a // root = smallest member index
			}
		}
	}
	sets := make(map[int]map[int]struct{})
	for _, v := range es.batch {
		r := find(v)
		set := sets[r]
		if set == nil {
			set = make(map[int]struct{})
			sets[r] = set
		}
		for _, u32 := range pi.mirG.Neighbors(v) {
			u := int(u32)
			if _, dead := es.batchSet[u]; !dead {
				set[u] = struct{}{}
			}
		}
	}
	roots = make([]int, 0, len(sets))
	for r := range sets {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	cands = make([][]int, len(roots))
	for i, r := range roots {
		cs := make([]int, 0, len(sets[r]))
		for u := range sets[r] {
			cs = append(cs, u)
		}
		sort.Ints(cs) // deterministic across runs (map iteration order)
		cands[i] = cs
	}
	return roots, cands
}

// addCluster appends a child epoch that heals one dead cluster of es.
// Child IDs are drawn in call order, so callers add clusters in
// ascending root order.
func (pi *pipeline) addCluster(es *epochState, root, leader int, cands []int, candIDs map[int]uint64) {
	es.clusters = append(es.clusters, &epochState{
		id:         pi.nextEpoch,
		kind:       epCluster,
		parent:     es,
		root:       root,
		leader:     leader,
		attach:     cands,   // candidate set doubles as the region seed
		attachInfo: candIDs, // payload for a supervisor-sent msgBatchLead
	})
	pi.nextEpoch++
}

// prepareClusters pairs each of the batch's dead clusters with the
// surviving leader the protocol elected during the commit stage.
func (pi *pipeline) prepareClusters(es *epochState) {
	roots, cands := pi.deadClusters(es)
	// Leaders recorded by the dying roots during commit.
	pi.nw.mu.Lock()
	recorded := pi.nw.batchClusters[es.id]
	delete(pi.nw.batchClusters, es.id)
	pi.nw.lastClusters = recorded
	pi.nw.mu.Unlock()
	leaders := make(map[int]int, len(recorded))
	for _, c := range recorded {
		leaders[c.root] = c.leader
	}
	for i, r := range roots {
		if leader, ok := leaders[r]; ok { // none: no surviving candidate
			pi.addCluster(es, r, leader, cands[i], nil)
		}
	}
	es.clustersLeft = len(es.clusters)
}

// scheduleClusters runs after the zombies are reaped: compute each
// cluster's heal region on the post-removal mirror, chain intersecting
// clusters in ascending root order (the sequential engine's order), and
// launch every cluster with no unmet dependency — concurrently.
func (pi *pipeline) scheduleClusters(es *epochState) {
	if len(es.clusters) == 0 {
		pi.completeBatch(es)
		return
	}
	earlier := make([]uint64, 0, len(es.clusters))
	for _, child := range es.clusters {
		child.region, _ = pi.growRegion(child.attach)
		child.universal = child.region == nil
		pi.chain(child, earlier)
		earlier = append(earlier, child.id)
		child.handle = es.handle // children report into the parent's handle
		pi.epochs[child.id] = child
	}
	for _, child := range es.clusters {
		if len(child.deps) == 0 {
			pi.launch(child)
		}
	}
}

func (pi *pipeline) advanceCluster(es *epochState) {
	switch {
	case strings.HasPrefix(es.stage, "probe"):
		es.stage = fmt.Sprintf("wire[%d]", es.root)
		pi.stageSend(es, func() {
			pi.nw.send(es.leader, message{kind: msgBatchHealWire, from: srcSupervisor, epoch: es.id, victim: es.root})
		})
	default: // wire stage drained: the cluster is healed
		// Per-cluster Lemma 9 accounting, mirroring the sequential
		// engine's one PropagateMinID call per cluster.
		pi.nw.foldFloodDepth(es.id)
		pi.applyAttach(es.id)
		es.completed = true
		delete(pi.epochs, es.id)
		pi.nw.track.release(es.id)
		parent := es.parent
		parent.clustersLeft--
		for _, sib := range parent.clusters {
			if sib.launched || sib.completed {
				continue
			}
			delete(sib.deps, es.id)
			if len(sib.deps) == 0 {
				pi.launch(sib)
			}
		}
		if parent.clustersLeft == 0 {
			pi.completeBatch(parent)
		}
	}
}

func (pi *pipeline) completeBatch(es *epochState) {
	// The whole epoch is one round, however many clusters it healed.
	pi.nw.mu.Lock()
	pi.nw.rounds++
	pi.nw.mu.Unlock()
	pi.finish(es)
}

// finish marks a top-level epoch complete, releases everything blocked
// on it, and launches newly unblocked epochs.
func (pi *pipeline) finish(es *epochState) {
	es.completed = true
	close(es.handle.done)
	delete(pi.epochs, es.id)
	pi.nw.track.release(es.id)
	for i, id := range pi.order {
		if id == es.id {
			pi.order = append(pi.order[:i], pi.order[i+1:]...)
			break
		}
	}
	switch es.kind {
	case epKill:
		delete(pi.pendingVictim, es.victim)
	case epBatch:
		for _, v := range es.batch {
			delete(pi.pendingVictim, v)
		}
	case epRecover:
		for _, v := range es.batch {
			delete(pi.pendingVictim, v)
		}
		// Aborted kills whose heal this recovery re-ran: their callers'
		// handles resolve now.
		for _, h := range es.adopts {
			close(h.done)
		}
		pi.recovering = false
	}
	for _, id := range pi.order {
		waiting := pi.epochs[id]
		if waiting.launched {
			continue
		}
		delete(waiting.deps, es.id)
		if len(waiting.deps) == 0 {
			pi.launch(waiting)
		}
	}
}

// oldestIncomplete returns the handle of the earliest-issued incomplete
// epoch, or nil when the pipeline is empty (Drain's loop condition).
func (pi *pipeline) oldestIncomplete() *Epoch {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if len(pi.order) == 0 {
		return nil
	}
	return pi.epochs[pi.order[0]].handle
}

// dumpEpochs renders the scheduler's view of every incomplete epoch for
// DumpState: its kind, stage, and what blocks it — so a stalled network
// is attributed to a specific epoch rather than an anonymous count.
func (pi *pipeline) dumpEpochs() string {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if len(pi.epochs) == 0 {
		return "  no incomplete epochs\n"
	}
	ids := make([]uint64, 0, len(pi.epochs))
	for id := range pi.epochs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	for _, id := range ids {
		es := pi.epochs[id]
		state := "launched"
		if !es.launched {
			deps := make([]uint64, 0, len(es.deps))
			for d := range es.deps {
				deps = append(deps, d)
			}
			sort.Slice(deps, func(i, j int) bool { return deps[i] < deps[j] })
			state = fmt.Sprintf("queued behind %v", deps)
		}
		region := fmt.Sprintf("region %d nodes", len(es.region))
		if es.universal {
			region = "universal region"
		}
		fmt.Fprintf(&b, "  epoch %d: %s stage %q, %s, %s\n", id, es.kind, es.stage, state, region)
	}
	return b.String()
}
