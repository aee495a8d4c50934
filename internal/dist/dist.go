// Package dist is the distributed implementation of DASH and SDASH
// (Saia & Trehan, "Picking up the Pieces", IPPS 2008): every live
// network node is an actor owning its local state, and all
// coordination happens through typed messages in per-node unbounded
// mailboxes. A fixed pool of GOMAXPROCS workers runs the actors, one
// message at a time per node (pool.go). It computes bit-for-bit the
// same healed topology as the sequential reference in internal/core —
// cmd/dashdist cross-checks the two round by round — while actually
// paying the message costs the paper's lemmas account for.
//
// One healing round, triggered by Network.Issue(Op{Kind: OpKill, Victim: x}):
//
//  1. Death. The supervisor (playing the failure detector) sends the
//     victim a die order; the victim broadcasts a death notice to its G
//     neighbors and stops. The notice is a bare tombstone: survivors
//     already know the victim's neighborhood, labels, and initial IDs
//     from their neighbor-of-neighbor (NoN) tables, the paper's
//     locality assumption made concrete.
//  2. Leader election, for free. Each orphan locally picks the orphan
//     with the smallest initial ID from its NoN view of the victim —
//     epoch scheduling keeps those views identical (see below), so all
//     orphans elect the same leader with zero election messages — and
//     sends the leader a heal report (its initial ID, current label, δ,
//     and whether its lost edge was a G′ edge).
//  3. Wiring. Once every expected report is in, the leader rebuilds
//     RT = UN(x,G) ∪ N(x,G′) exactly as the sequential healer does,
//     sorts it by (δ, initial ID), picks DASH's complete binary tree or
//     SDASH's surrogate star, and sends both endpoints of every healing
//     edge an attach order; endpoints ack back after updating G/G′
//     adjacency and exchanging NoN hellos over new edges.
//  4. MINID flood. After the last ack (so the wave travels the fully
//     wired post-heal G′), the leader pushes the minimum label at every
//     reconnection-set member that must adopt it; adopters notify all G
//     neighbors (the Lemma 8 traffic, counted in Snapshot.MsgSent) and
//     forward the hop-tagged wave through G′.
//  5. Epoch completion. Every message carries the epoch ID of the
//     kill/join/batch operation it serves, and a per-epoch conservation
//     counter — incremented at send, decremented only after a handler
//     (and thus all sends it caused) finished — reaches zero exactly
//     when none of the epoch's messages is queued or in processing
//     anywhere. That per-epoch quiescence replaces the old global
//     barrier: there is no network-wide quiet point between rounds.
//
// Pipelined epochs. Operations no longer run one-at-a-time: the
// supervisor's epoch scheduler (pipeline.go) lets any two operations
// whose conflict regions are disjoint run fully concurrently — a new
// deletion's epoch starts while a prior MINID flood is still draining
// elsewhere, and a batch epoch's dead clusters heal in parallel instead
// of in strict root order. Conflicting epochs are chained in issue
// order, which is what keeps every node's reads (labels, δ, NoN views)
// identical to the sequential engine's and the healed state bit-exact.
// Network.Issue is the one way in: it issues an Op, the operation type
// both engines are fed (op.go), and returns the epoch's handle at once;
// Epoch.Wait blocks on that epoch only.
// internal/dist/modelcheck exhaustively enumerates message
// interleavings of overlapping epochs on small networks and asserts
// every schedule converges to the sequential core result.
//
// Batch kills: an OpBatch is footnote 1 as a protocol — a whole
// victim set dies in one supervisor-staged epoch (cluster probes through
// the dead set, candidate convergecast to cluster roots, tombstones plus
// leader handoff, then zombie; per cluster the leader drives a G′
// component-probe relaxation flood, collects heal reports, wires
// representatives as the batch-DASH binary tree, and MINID-floods),
// bit-identical to core.DeleteBatchAndHeal. Disjoint clusters heal
// concurrently under their own child epochs. See batch.go and README.md.
//
// Churn: an OpJoin is the arrival-side operation (the distributed
// counterpart of core.State.Join). The supervisor creates the newcomer's
// actor and sends each attach target a join hello carrying the
// newcomer's initial ID and attach set; targets wire the edge, gossip
// the gain into the NoN tables, and ack back their own label and
// neighborhood.
//
// Snapshot assembles a global view (topologies G and G′, labels, δ, and
// the per-node traffic counters) by querying every live actor; it is
// instrumentation, not part of the protocol, and is only meaningful
// after Drain, or once every issued epoch's Wait has returned.
package dist

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist/chaos"
	"repro/internal/graph"
)

// HealerKind selects the distributed healing rule.
type HealerKind int

const (
	// HealDASH wires the reconnection set as a complete binary tree
	// (Algorithm 1).
	HealDASH HealerKind = iota
	// HealSDASH surrogates through a star when that cannot push any δ
	// past the set's current maximum, else falls back to the tree
	// (Algorithm 3).
	HealSDASH
)

// finalStats archives a dead node's traffic counters so Snapshot can
// still report them (the sequential engine keeps dead nodes' counters
// too).
type finalStats struct {
	msgSent   int64
	coordMsgs int64
	nonMsgs   int64
}

// Network is the supervisor for a set of node actors: it injects
// failures, schedules epochs, and assembles snapshots. All protocol
// state lives inside the nodes; all scheduling state lives in the
// epoch pipeline.
type Network struct {
	kind  HealerKind
	track *tracker
	pipe  *pipeline

	// pool runs the node actors; nil for a manual network, whose
	// handlers the ordering tests and the deterministic Sim call
	// directly (assemble without start).
	pool *pool

	// nodes publishes the node slice behind an atomic pointer: pipelined
	// joins append to it while workers are sending, so readers take a
	// consistent snapshot instead of racing a slice append. appendNode
	// appends into nodeBuf's spare capacity (under mu) and publishes the
	// longer header; a reader never indexes past its own snapshot's
	// length, so the slots it can see are never written again.
	nodes   atomic.Pointer[[]*node]
	nodeBuf []*node

	// testDrop, when non-nil, simulates lossy transport: a message it
	// returns true for is counted in flight but never delivered, so the
	// epoch visibly fails to complete instead of silently mis-healing.
	// Tests set it immediately after NewKind, before any Issue.
	testDrop func(to int, msg message) bool

	// transport delivers counted messages to mailboxes. The default is
	// the direct in-process push; NewChaos swaps in the fault-injecting
	// reliable channel (transport.go). Set once before any traffic.
	transport Transport

	// msgKindSent counts sends per message kind (atomic), the
	// instrumentation behind the Lemma-8-style probe accounting tests.
	msgKindSent [msgKindCount]int64

	mu        sync.Mutex
	n         int
	initIDs   []uint64 // immutable per slot; the supervisor's ID ledger
	dead      []bool   // epoch completed: the kill of this node succeeded
	exited    []bool   // the node has died (set by the node itself; a batch zombie drains on until msgStop)
	deadStats []finalStats
	epochHops map[uint64]map[int]int // per-epoch adopters -> min hop distance
	floodSum  int64
	floodMax  int
	rounds    int
	closed    bool

	// batchClusters collects, per batch epoch during its commit stage,
	// each dead cluster's root and elected surviving leader (see
	// batch.go). lastClusters snapshots the most recent batch epoch's
	// records for the protocol-vs-union-find cross-check tests.
	batchClusters map[uint64][]batchCluster
	lastClusters  []batchCluster
}

// NewKind spawns a distributed network over g that heals by kind. ids
// assigns each node slot its immutable initial ID (as core.State.InitID
// would); the graph is read during bootstrap and not retained.
func NewKind(g *graph.Graph, ids []uint64, kind HealerKind) *Network {
	nw := assemble(g, ids, kind)
	nw.start()
	return nw
}

// NewChaos is NewKind over the fault-injecting transport: messages
// between nodes are subjected to plan's deterministic drop, duplicate,
// delay, partition, and crash schedule, and ride the sequenced,
// acknowledged, retransmitting channel that makes the protocol converge
// anyway. A nil plan yields a plain network. It returns an error for an
// invalid plan (an unknown or supervisor-originated crash-point kind).
func NewChaos(g *graph.Graph, ids []uint64, kind HealerKind, plan *chaos.Plan) (*Network, error) {
	nw := assemble(g, ids, kind)
	if plan != nil {
		ct, err := newChaosTransport(nw, plan)
		if err != nil {
			return nil, err
		}
		nw.transport = ct
	}
	nw.start()
	return nw, nil
}

// ChaosTransportStats reports the chaos transport's fault counters
// (zero value and false when the network runs the direct transport).
func (nw *Network) ChaosTransportStats() (ChaosStats, bool) {
	ct, ok := nw.transport.(*chaosTransport)
	if !ok {
		return ChaosStats{}, false
	}
	st := ct.stats()
	st.Crashes = nw.CrashCount()
	return st, true
}

// assemble builds the network without starting the worker pool. Tests
// and the deterministic Sim use the unstarted form to deliver messages
// one at a time in a chosen order; production callers go through
// NewKind.
func assemble(g *graph.Graph, ids []uint64, kind HealerKind) *Network {
	n := g.N()
	if len(ids) != n {
		panic(fmt.Sprintf("dist: %d ids for %d nodes", len(ids), n))
	}
	nw := &Network{
		kind:          kind,
		n:             n,
		initIDs:       append([]uint64(nil), ids...),
		track:         &tracker{},
		dead:          make([]bool, n),
		exited:        make([]bool, n),
		deadStats:     make([]finalStats, n),
		epochHops:     make(map[uint64]map[int]int),
		batchClusters: make(map[uint64][]batchCluster),
	}
	nodes := make([]*node, n)
	// Bootstrap each actor's local state straight from the overlay: its
	// adjacency, and the NoN tables (each neighbor's full neighborhood
	// with initial IDs) that the protocol's wills rely on. At t=0 every
	// current label equals the initial ID, exactly like core.NewState.
	for v := 0; v < n; v++ {
		if !g.Alive(v) {
			nw.dead[v] = true
			continue
		}
		nd := newNode(nw, v, ids[v], g.Degree(v))
		for _, u32 := range g.Neighbors(v) {
			u := int(u32)
			uNbrs := g.Neighbors(u)
			non := make(map[int]uint64, len(uNbrs))
			for _, w := range uNbrs {
				non[int(w)] = ids[w]
			}
			nd.gNbrs[u] = &nbrInfo{initID: ids[u], curID: ids[u], nbrs: non}
		}
		nodes[v] = nd
	}
	nw.nodeBuf = nodes
	nw.nodes.Store(&nodes)
	nw.transport = directTransport{nw: nw}
	nw.pipe = newPipeline(nw, g)
	nw.track.onZero = nw.pipe.onEpochZero
	return nw
}

// node returns the actor at slot v from the current node-slice snapshot.
func (nw *Network) node(v int) *node { return (*nw.nodes.Load())[v] }

// nodeSlice returns the current node-slice snapshot.
func (nw *Network) nodeSlice() []*node { return *nw.nodes.Load() }

// appendNode publishes a new node slot (under nw.mu). The append is
// amortized O(1): it writes only the slot past every published length.
func (nw *Network) appendNode(nd *node) {
	nw.nodeBuf = append(nw.nodeBuf, nd)
	fresh := nw.nodeBuf
	nw.nodes.Store(&fresh)
}

// start launches the worker pool. No message is queued yet, so no node
// is on the run queue; each is queued by the first push it receives.
func (nw *Network) start() {
	nw.pool = startPool()
}

// send is the single transport primitive: count the message in flight
// under its epoch, then deliver it to the recipient's mailbox. Counting
// strictly before delivery is what makes the per-epoch quiescence
// counters conservative. Attach orders are also recorded with the epoch
// scheduler, which replays them into its topology mirror when the epoch
// completes.
func (nw *Network) send(to int, msg message) {
	nw.track.add(msg.epoch, 1)
	atomic.AddInt64(&nw.msgKindSent[msg.kind], 1)
	if msg.kind == msgAttach {
		nw.pipe.recordAttach(msg.epoch, to, msg.peer)
	}
	if drop := nw.testDrop; drop != nil && drop(to, msg) {
		return
	}
	nw.transport.deliver(to, msg)
}

// MsgKindSent reports how many messages of one kind the whole network
// has sent so far (protocol instrumentation; used by the probe
// accounting tests).
func (nw *Network) msgKindTotal(kind msgKind) int64 {
	return atomic.LoadInt64(&nw.msgKindSent[kind])
}

// KillAsync is Issue(Op{Kind: OpKill, Victim: v}) that panics where
// Issue refuses. It and JoinAsync remain only because bench/distchurn.go
// calls them; the next change to bench/ moves that file to Issue and
// deletes both.
func (nw *Network) KillAsync(v int) *Epoch {
	ep := nw.pipe.issueKill(v)
	if ep == nil {
		panic(fmt.Sprintf("dist: killing dead node %d", v))
	}
	return ep
}

// JoinAsync issues a join to attachTo with initial ID id and returns
// the newcomer's slot; like KillAsync, it panics where Issue refuses.
func (nw *Network) JoinAsync(attachTo []int, id uint64) (int, *Epoch) {
	v, ep := nw.pipe.issueJoin(attachTo, id)
	if ep == nil {
		panic("dist: joining to dead node")
	}
	return v, ep
}

// Drain blocks until every issued epoch has completed and no message is
// in flight anywhere, or the timeout elapses. It is the pipelined
// equivalent of the old global quiescence barrier — call it before
// Snapshot when async operations are outstanding.
func (nw *Network) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ep := nw.pipe.oldestIncomplete()
		if ep == nil {
			break
		}
		if err := ep.waitDeadline(deadline); err != nil {
			return fmt.Errorf("dist: drain: %w", err)
		}
	}
	if !nw.track.wait(time.Until(deadline)) {
		return fmt.Errorf("dist: drain: %w", nw.stallError(0, "", timeout))
	}
	return nil
}

// SetSerial switches the epoch scheduler between pipelined (the
// default) and serial mode. In serial mode every epoch conflicts with
// every other, reproducing the old one-round-at-a-time global barrier —
// the baseline the epoch-overlap benchmarks compare against.
func (nw *Network) SetSerial(serial bool) {
	nw.pipe.mu.Lock()
	nw.pipe.serial = serial
	nw.pipe.mu.Unlock()
}

// recordFloodDepth notes that node v adopted (or relaxed) an epoch's
// label at the given hop distance from the reconnection set. The epoch's
// depth is the maximum over adopters of each adopter's minimum distance
// — the same quantity the sequential BFS computes for Lemma 9.
func (nw *Network) recordFloodDepth(epoch uint64, v, hops int) {
	nw.mu.Lock()
	hopsByNode := nw.epochHops[epoch]
	if hopsByNode == nil {
		hopsByNode = make(map[int]int)
		nw.epochHops[epoch] = hopsByNode
	}
	if cur, ok := hopsByNode[v]; !ok || hops < cur {
		hopsByNode[v] = hops
	}
	nw.mu.Unlock()
}

// foldFloodDepth folds one completed epoch's flood-depth records into
// the Lemma 9 accounting: each epoch (each batch cluster heal runs
// under its own child epoch) contributes its own maximum adopter depth,
// exactly as one sequential PropagateMinID call does.
func (nw *Network) foldFloodDepth(epoch uint64) {
	nw.mu.Lock()
	depth := 0
	for _, h := range nw.epochHops[epoch] {
		if h > depth {
			depth = h
		}
	}
	delete(nw.epochHops, epoch)
	nw.floodSum += int64(depth)
	if depth > nw.floodMax {
		nw.floodMax = depth
	}
	nw.mu.Unlock()
}

// storeFinal archives a dying node's counters and records that it has
// died, so Snapshot never waits on it — even when
// the epoch that killed it subsequently failed its watchdog.
func (nw *Network) storeFinal(v int, fs finalStats) {
	nw.mu.Lock()
	nw.deadStats[v] = fs
	nw.exited[v] = true
	nw.mu.Unlock()
}

// FloodStats reports the MINID wave-depth accounting across all healing
// epochs so far: the summed per-epoch maximum depth, the deepest single
// wave, and the number of rounds. The wave relaxes hop tags to true G′
// distances, so these equal the sequential core.State.FloodDepthSum,
// MaxFloodDepth, and Rounds exactly — including under pipelining,
// because epoch scheduling confines each wave to its own conflict
// region.
func (nw *Network) FloodStats() (sum int64, max int, rounds int) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.floodSum, nw.floodMax, nw.rounds
}

// Snap is a quiescent-moment global view of the distributed network,
// assembled by querying every live actor.
type Snap struct {
	G  *graph.Graph // the real network
	Gp *graph.Graph // healing edges G′ ⊆ G

	CurID []uint64 // component labels (0 for dead nodes)
	Delta []int    // δ per node (0 for dead nodes)

	MsgSent   []int64 // Lemma 8 label notifications sent, per node
	CoordMsgs []int64 // healing coordination messages sent, per node
	NoNMsgs   []int64 // NoN gossip messages sent, per node
}

// Snapshot collects the global state. Call it only when no epoch is in
// flight (after Drain, or once every issued epoch's Wait has returned);
// it is not itself part of the protocol and sends no countable traffic.
// Nodes that have retired — including the victim of an epoch that
// failed its watchdog — are reported from their archived final state
// rather than queried, so Snapshot never blocks on a dead actor.
func (nw *Network) Snapshot() *Snap {
	nodes := nw.nodeSlice()
	nw.mu.Lock()
	n := nw.n
	dead := make([]bool, n)
	for v := range dead {
		dead[v] = nw.dead[v] || nw.exited[v]
	}
	stats := append([]finalStats(nil), nw.deadStats...)
	nw.mu.Unlock()

	snap := &Snap{
		G:         graph.New(n),
		Gp:        graph.New(n),
		CurID:     make([]uint64, n),
		Delta:     make([]int, n),
		MsgSent:   make([]int64, n),
		CoordMsgs: make([]int64, n),
		NoNMsgs:   make([]int64, n),
	}
	replies := make(chan nodeSnap, n)
	live := 0
	for v := 0; v < n; v++ {
		if dead[v] {
			snap.G.RemoveNode(v)
			snap.Gp.RemoveNode(v)
			snap.MsgSent[v] = stats[v].msgSent
			snap.CoordMsgs[v] = stats[v].coordMsgs
			snap.NoNMsgs[v] = stats[v].nonMsgs
			continue
		}
		live++
		if nw.pool == nil {
			// No workers to query through: read the actor state directly
			// (single-threaded harness, nothing else is running).
			replies <- nodes[v].snapshot()
			continue
		}
		nw.send(v, message{kind: msgSnapshot, from: srcSupervisor, reply: replies})
	}
	for i := 0; i < live; i++ {
		ns := <-replies
		snap.CurID[ns.id] = ns.curID
		snap.Delta[ns.id] = ns.delta
		snap.MsgSent[ns.id] = ns.msgSent
		snap.CoordMsgs[ns.id] = ns.coordMsgs
		snap.NoNMsgs[ns.id] = ns.nonMsgs
		for _, u := range ns.gNbrs {
			if !snap.G.HasEdge(ns.id, u) && snap.G.Alive(u) {
				snap.G.AddEdge(ns.id, u)
			}
		}
		for _, u := range ns.gpNbrs {
			if !snap.Gp.HasEdge(ns.id, u) && snap.Gp.Alive(u) {
				snap.Gp.AddEdge(ns.id, u)
			}
		}
	}
	return snap
}

// Close stops the worker pool and waits for every worker to exit; mail
// still queued is abandoned. Safe to call more than once; the network
// is unusable afterwards.
func (nw *Network) Close() {
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		return
	}
	nw.closed = true
	nw.mu.Unlock()
	if nw.pool != nil {
		nw.pool.stop()
	}
	if tc, ok := nw.transport.(transportCloser); ok {
		tc.closeTransport()
	}
}

// DumpState renders a human-readable diagnostic of the network's
// concurrency state: the global and per-epoch in-flight counters, each
// incomplete epoch's stage, and every live node's mailbox backlog. It
// is what a failed epoch Wait attaches to a watchdog error.
func (nw *Network) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dist network dump: %d in-flight messages\n", nw.track.pending())
	b.WriteString(renderEpochLoads(nw.track.epochLoads()))
	b.WriteString(nw.pipe.dumpEpochs())
	nw.mu.Lock()
	dead := append([]bool(nil), nw.dead...)
	nw.mu.Unlock()
	type row struct {
		v, backlog int
	}
	var busy []row
	alive := 0
	for v, nd := range nw.nodeSlice() {
		if nd == nil || v < len(dead) && dead[v] {
			continue
		}
		alive++
		if n := nd.inbox.size(); n > 0 {
			busy = append(busy, row{v, n})
		}
	}
	sort.Slice(busy, func(i, j int) bool { return busy[i].backlog > busy[j].backlog })
	fmt.Fprintf(&b, "  %d live nodes, %d with non-empty mailboxes\n", alive, len(busy))
	for i, r := range busy {
		if i == 16 {
			fmt.Fprintf(&b, "  ... %d more\n", len(busy)-16)
			break
		}
		fmt.Fprintf(&b, "  node %d: %d queued messages\n", r.v, r.backlog)
	}
	return b.String()
}
