package dist

import (
	"fmt"
	"sync/atomic"
)

// nbrInfo is everything a node knows about one G neighbor: its immutable
// initial ID, its current component label (kept fresh by msgLabelNotify),
// and — the paper's neighbor-of-neighbor assumption — that neighbor's own
// neighborhood with initial IDs, kept fresh by NoN gossip. The NoN table
// is what lets the survivors of a deletion agree on a leader and on the
// set of orphans without any central coordinator.
type nbrInfo struct {
	initID uint64
	curID  uint64
	nbrs   map[int]uint64 // the neighbor's neighbors -> their initial IDs
}

// healState is the leader's per-round scratchpad while it collects the
// orphans' heal reports and, later, the attach acks. Batch-kill cluster
// heals (keyed by the cluster root, a dead node index, so the keys never
// collide with single-kill victims) reuse the same scratchpad: cands is
// the candidate set handed over by the dying root, and compMin records
// each candidate's G′ component minimum from the probe phase.
type healState struct {
	victimCurID uint64
	expect      map[int]struct{} // orphans that must report; nil until the
	// leader has itself processed the death notice
	reports  map[int]healReport
	acksLeft int
	rt       []healReport // the sorted reconnection set, kept for the flood
	wired    bool

	batch   bool           // this round heals a batch cluster
	cands   map[int]uint64 // batch: cluster candidates -> initial IDs
	compMin map[int]uint64 // batch: candidate -> its component's min candidate initID
}

// node is one network participant: an actor owning all of its state,
// reachable only through its mailbox and run by the worker pool
// (pool.go) one message at a time.
type node struct {
	nw *Network
	id int

	initID  uint64
	curID   uint64
	initDeg int

	// curEpoch is the epoch of the message currently being handled;
	// every send this node makes while handling inherits it, so an
	// epoch's causal cone stays inside its own quiescence counter.
	curEpoch uint64

	inbox mailbox

	gNbrs  map[int]*nbrInfo
	gpNbrs map[int]struct{} // subset of gNbrs: edges also in G′

	// pendingHello buffers a msgNoNFull that arrived before this node
	// processed its own attach order for the same new edge (the leader
	// sends the two attach orders back to back, so the peer's hello can
	// overtake ours). onAttach drains it into the fresh nbrInfo.
	pendingHello map[int]map[int]uint64

	heals map[int]*healState // rounds this node is leading, by victim

	// floodRound/floodHops track the current round's MINID wave: the
	// victim whose round this label belongs to and the smallest hop tag
	// seen so far, so the wave relaxes to true G′ distances and the
	// Lemma 9 depth accounting is deterministic (and equal to the
	// sequential BFS depth) rather than first-arrival order.
	floodRound int
	floodHops  int

	// Batch-kill epoch state (victim side). A dying node stays live as a
	// protocol participant through the staged epoch — cluster probe,
	// candidate convergecast, commit — and then turns zombie: it keeps
	// draining its mailbox (so late NoN gossip from survivors that had
	// not yet processed every tombstone cannot wedge quiescence) but
	// drops everything until the supervisor's msgStop.
	dying     bool
	zombie    bool
	batchSet  map[int]struct{} // the epoch's victim set (shared, read-only)
	batchRoot int              // smallest victim index in my dead cluster so far
	batchCand map[int]uint64   // roots only: accumulated surviving candidates

	// G′ component-probe state (survivor side, one cluster at a time):
	// the cluster root the probe belongs to and the smallest candidate
	// initial ID that has reached this node through G′.
	probeRoot int
	probeBest uint64

	// Crash-fault state (recovery.go). crashed is set by the supervisor
	// (from the chaos transport's delivery path, hence atomic): the node
	// becomes a black hole that consumes messages — ticking the epoch
	// conservation counters — but acts on nothing until the recovery
	// epoch's msgStop. crashArchived notes that the counters were
	// archived on the first post-crash message. abortedEpochs guards
	// against residual coordination traffic of kill epochs torn by a
	// crash; roundWires records, per healing round, which G/G′ edges
	// this endpoint added, so msgEpochAbort can unwind them exactly.
	crashed       atomic.Bool
	crashArchived bool
	abortedEpochs map[uint64]struct{}
	roundWires    map[int][]wireRec

	// Traffic counters, split the way the paper's accounting splits them.
	msgSent   int64 // Lemma 8 label notifications
	coordMsgs int64 // death notices, reports, attach orders/acks, flood
	nonMsgs   int64 // NoN gossip
}

// wireRec is one healing edge this node wired during a round, with
// enough provenance to undo it: whether the G and G′ adjacencies were
// actually new (an attach over a pre-existing real edge adds only G′).
type wireRec struct {
	peer    int
	addedG  bool
	addedGp bool
}

// newNode builds slot v's actor with initial ID id (also its current
// label) and initial degree deg, and no neighbors yet.
func newNode(nw *Network, v int, id uint64, deg int) *node {
	return &node{
		nw:           nw,
		id:           v,
		initID:       id,
		curID:        id,
		initDeg:      deg,
		gNbrs:        make(map[int]*nbrInfo, deg),
		gpNbrs:       make(map[int]struct{}),
		pendingHello: make(map[int]map[int]uint64),
		heals:        make(map[int]*healState),
		floodRound:   -1,
		probeRoot:    -1,
	}
}

func (nd *node) delta() int { return len(nd.gNbrs) - nd.initDeg }

// send stamps msg with the epoch of the message this node is currently
// processing and hands it to the transport. All handler-originated
// traffic goes through here; only the supervisor stamps epochs
// explicitly.
func (nd *node) send(to int, msg message) {
	msg.epoch = nd.curEpoch
	nd.nw.send(to, msg)
}

// handle dispatches one message; it reports true when the node retires
// (msgDie, msgStop): it never runs again.
func (nd *node) handle(msg message) bool {
	nd.curEpoch = msg.epoch
	if nd.crashed.Load() {
		// Fail-stopped: consume everything (the conservation counters
		// must still drain) but act on nothing, until the recovery
		// epoch's msgStop. Counters are archived on the first post-crash
		// message so Snapshot can still report them; snapshot requests
		// are answered (stale state) so instrumentation never hangs.
		if !nd.crashArchived {
			nd.crashArchived = true
			nd.nw.storeCrashStats(nd.id, finalStats{nd.msgSent, nd.coordMsgs, nd.nonMsgs})
		}
		if msg.kind == msgSnapshot {
			msg.reply <- nd.snapshot()
		}
		return msg.kind == msgStop
	}
	if len(nd.abortedEpochs) > 0 {
		if _, ab := nd.abortedEpochs[msg.epoch]; ab {
			// Residual coordination traffic of a kill epoch torn by a
			// crash: silently consumed. NoN gossip and label notifies
			// still apply — the abort's retraction gossip travels under
			// the aborted epoch too, and one-hop ring writes are valid
			// regardless of the round's fate.
			switch msg.kind {
			case msgDeathNotice, msgHealReport, msgAttach, msgAttachAck,
				msgNoNFull, msgLabelFlood:
				return false
			}
		}
	}
	if nd.zombie {
		// A committed batch victim: only late NoN gossip from survivors
		// that had not yet processed every tombstone can still arrive
		// (and the supervisor's msgStop). Anything else is a protocol
		// bug worth failing loudly on.
		switch msg.kind {
		case msgStop:
			return true
		case msgNoNRemove, msgNoNAdd, msgLabelNotify:
			return false
		case msgEpochAbort, msgCrashNotice:
			// Supervisor traffic from crash recovery; a zombie's state is
			// about to be discarded, so there is nothing to unwind.
			return false
		default:
			panic(fmt.Sprintf("dist: zombie %d got %v", nd.id, msg.kind))
		}
	}
	switch msg.kind {
	case msgDie:
		nd.die()
		return true
	case msgStop:
		return true
	case msgDeathNotice:
		nd.onDeathNotice(msg.victim)
	case msgHealReport:
		nd.onHealReport(msg.victim, msg.report)
	case msgAttach:
		nd.onAttach(msg)
	case msgAttachAck:
		nd.onAttachAck(msg.victim)
	case msgLabelFlood:
		nd.onLabelFlood(msg.victim, msg.label, msg.hops)
	case msgLabelNotify:
		if info, ok := nd.gNbrs[msg.from]; ok {
			info.curID = msg.label
		}
	case msgNoNFull:
		if info, ok := nd.gNbrs[msg.from]; ok {
			info.nbrs = msg.nonNbrs
		} else {
			// The peer's hello overtook our own attach order for the
			// new edge; hold it until onAttach creates the entry.
			nd.pendingHello[msg.from] = msg.nonNbrs
		}
	case msgNoNAdd:
		if info, ok := nd.gNbrs[msg.from]; ok && info.nbrs != nil {
			info.nbrs[msg.nonPeer] = msg.nonPeerInitID
		} else if hello, ok := nd.pendingHello[msg.from]; ok {
			// Same-sender FIFO guarantees the hello precedes any
			// incremental gossip, so a buffered hello is the only other
			// place an update can land.
			hello[msg.nonPeer] = msg.nonPeerInitID
		}
	case msgNoNRemove:
		if info, ok := nd.gNbrs[msg.from]; ok && info.nbrs != nil {
			delete(info.nbrs, msg.nonPeer)
		} else if hello, ok := nd.pendingHello[msg.from]; ok {
			delete(hello, msg.nonPeer)
		}
	case msgJoinReq:
		nd.onJoinReq(msg)
	case msgJoinAck:
		if info, ok := nd.gNbrs[msg.from]; ok {
			info.curID = msg.label
			info.nbrs = msg.nonNbrs // freshly built per ack; never shared
		}
	case msgSnapshot:
		msg.reply <- nd.snapshot()
	case msgBatchDie:
		nd.dying = true
		nd.batchSet = msg.batch
		nd.batchRoot = nd.id
	case msgBatchProbe:
		nd.onBatchProbe()
	case msgClusterProbe:
		nd.onClusterProbe(msg.root)
	case msgBatchCollect:
		nd.onBatchCollect()
	case msgClusterJoin:
		nd.onClusterJoin(msg.nonNbrs)
	case msgBatchCommit:
		nd.onBatchCommit()
	case msgBatchNotice:
		nd.onBatchNotice(msg.victim)
	case msgBatchLead:
		hs := nd.healFor(msg.victim)
		hs.batch = true
		hs.cands = msg.nonNbrs // built by the dying root; never mutated again
	case msgBatchHealStart:
		nd.onBatchHealStart(msg.victim)
	case msgCompProbeStart:
		nd.probeRelax(msg.victim, nd.initID)
	case msgCompProbe:
		nd.probeRelax(msg.victim, msg.label)
	case msgBatchHealWire:
		nd.onBatchHealWire(msg.victim)
	case msgBatchReportReq:
		nd.onBatchReportReq(msg.victim, msg.from)
	case msgBatchReport:
		nd.onBatchReport(msg.victim, msg.report, msg.label)
	case msgEpochAbort:
		nd.onEpochAbort(msg)
	case msgCrashNotice:
		nd.onCrashNotice(msg.victim)
	default:
		panic(fmt.Sprintf("dist: node %d: unknown message kind %v", nd.id, msg.kind))
	}
	return false
}

// die broadcasts this node's tombstone to every G neighbor and archives
// its final traffic counters with the supervisor. The survivors already
// hold everything else they need (the will) in their NoN tables.
func (nd *node) die() {
	for w := range nd.gNbrs {
		nd.coordMsgs++
		nd.send(w, message{kind: msgDeathNotice, from: nd.id, victim: nd.id})
	}
	nd.nw.storeFinal(nd.id, finalStats{nd.msgSent, nd.coordMsgs, nd.nonMsgs})
}

// onDeathNotice is the orphan side of a deletion: drop the victim from
// the local topology, gossip the loss, deterministically pick the round's
// leader from the NoN table, and send the leader this orphan's heal
// report. When this orphan IS the leader it also freezes the expected
// reporter set from its (pre-deletion) view of the victim's neighborhood.
func (nd *node) onDeathNotice(x int) {
	info, ok := nd.gNbrs[x]
	if !ok {
		panic(fmt.Sprintf("dist: node %d got death notice for non-neighbor %d", nd.id, x))
	}
	_, wasGp := nd.gpNbrs[x]
	delete(nd.gNbrs, x)
	delete(nd.gpNbrs, x)

	// NoN gossip: my neighborhood shrank.
	for w := range nd.gNbrs {
		nd.nonMsgs++
		nd.send(w, message{kind: msgNoNRemove, from: nd.id, nonPeer: x})
	}

	// Leader election, resolved locally: every orphan holds the same NoN
	// view of the victim's neighborhood (quiescence between rounds keeps
	// the tables consistent), so all pick the same minimum-initial-ID
	// orphan without exchanging a single extra message.
	if info.nbrs == nil {
		panic(fmt.Sprintf("dist: node %d has no NoN entry for dead neighbor %d", nd.id, x))
	}
	leader := nd.id
	best := nd.initID
	for v, vid := range info.nbrs {
		if vid < best {
			leader, best = v, vid
		}
	}

	if leader == nd.id {
		hs := nd.healFor(x)
		hs.victimCurID = info.curID
		hs.expect = make(map[int]struct{}, len(info.nbrs))
		for v := range info.nbrs {
			hs.expect[v] = struct{}{}
		}
	}

	nd.coordMsgs++
	nd.send(leader, message{
		kind:   msgHealReport,
		from:   nd.id,
		victim: x,
		report: healReport{
			from:     nd.id,
			initID:   nd.initID,
			curID:    nd.curID,
			delta:    nd.delta(),
			wasGpNbr: wasGp,
		},
	})
}

// healFor returns (creating if needed) the leader state for a victim.
// Creation is lazy because another orphan's report can overtake the
// leader's own death notice in the mail.
func (nd *node) healFor(x int) *healState {
	hs, ok := nd.heals[x]
	if !ok {
		hs = &healState{reports: make(map[int]healReport)}
		nd.heals[x] = hs
	}
	return hs
}

func (nd *node) onHealReport(x int, rep healReport) {
	hs := nd.healFor(x)
	hs.reports[rep.from] = rep
	nd.maybeWire(x, hs)
}

// maybeWire runs once the leader knows the full orphan set and has every
// report: it computes the reconnection set and the healing edges exactly
// as the sequential reference does, then issues attach orders.
func (nd *node) maybeWire(x int, hs *healState) {
	if hs.wired || hs.expect == nil || len(hs.reports) < len(hs.expect) {
		return
	}
	for v := range hs.expect {
		if _, ok := hs.reports[v]; !ok {
			panic(fmt.Sprintf("dist: leader %d: report count full but orphan %d missing", nd.id, v))
		}
	}
	hs.wired = true

	rt := reconnectSet(hs)
	hs.rt = rt
	if len(rt) == 0 {
		nd.finishRound(x, hs)
		return
	}

	// Choose the healing edges. DASH: complete binary tree over RT in
	// ascending (δ, initial ID). SDASH: surrogate star when the best
	// candidate can absorb the whole set without exceeding the current
	// maximum δ, else DASH's tree — the exact rule of core.SDASH.
	var edges [][2]healReport
	switch nd.nw.kind {
	case HealSDASH:
		w, m := rt[0], rt[len(rt)-1]
		if w.delta+len(rt)-1 <= m.delta {
			for _, v := range rt[1:] {
				edges = append(edges, [2]healReport{w, v})
			}
		} else {
			edges = treeEdges(rt)
		}
	default:
		edges = treeEdges(rt)
	}
	nd.sendAttachOrders(x, hs, edges)
}

// treeEdges lays rt out as a complete binary tree (member i parents
// members 2i+1 and 2i+2) — the wiring of core.State.WireBinaryTree.
func treeEdges(rt []healReport) [][2]healReport {
	var edges [][2]healReport
	for i := range rt {
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < len(rt) {
				edges = append(edges, [2]healReport{rt[i], rt[c]})
			}
		}
	}
	return edges
}

// sendAttachOrders issues both endpoints' attach orders for every healing
// edge of round x, or starts the MINID flood immediately when the round
// adds no edges (|RT| ≤ 1).
func (nd *node) sendAttachOrders(x int, hs *healState, edges [][2]healReport) {
	if len(edges) == 0 {
		nd.startFlood(x, hs)
		return
	}
	hs.acksLeft = 2 * len(edges)
	for _, e := range edges {
		a, b := e[0], e[1]
		nd.coordMsgs++
		nd.send(a.from, message{
			kind: msgAttach, from: nd.id, victim: x, leader: nd.id,
			peer: b.from, peerInitID: b.initID, peerCurID: b.curID,
		})
		nd.coordMsgs++
		nd.send(b.from, message{
			kind: msgAttach, from: nd.id, victim: x, leader: nd.id,
			peer: a.from, peerInitID: a.initID, peerCurID: a.curID,
		})
	}
}

// reconnectSet rebuilds RT = UN(x,G) ∪ N(x,G′) from the heal reports and
// sorts it ascending by (δ, initial ID) — the complete-binary-tree order
// of Algorithm 1. G′ neighbors of the victim necessarily carry the
// victim's own label (they were in its G′ component), so the UN class
// filter excludes them and the union below never double-counts.
func reconnectSet(hs *healState) []healReport {
	classRep := make(map[uint64]healReport)
	var rt []healReport
	for _, rep := range hs.reports {
		if rep.wasGpNbr {
			rt = append(rt, rep)
			continue
		}
		if rep.curID == hs.victimCurID {
			continue
		}
		if cur, ok := classRep[rep.curID]; !ok || rep.initID < cur.initID {
			classRep[rep.curID] = rep
		}
	}
	for _, rep := range classRep {
		rt = append(rt, rep)
	}
	sortByDeltaID(rt)
	return rt
}

// sortByDeltaID insertion-sorts reports ascending by (δ, initID);
// initial IDs are unique so the order is total and identical to
// core.State.SortByDelta.
func sortByDeltaID(rt []healReport) {
	for i := 1; i < len(rt); i++ {
		for j := i; j > 0; j-- {
			a, b := rt[j-1], rt[j]
			if a.delta < b.delta || (a.delta == b.delta && a.initID <= b.initID) {
				break
			}
			rt[j-1], rt[j] = b, a
		}
	}
}

// onAttach wires one endpoint of a healing edge: into G only when the
// nodes were not already real-network neighbors (so δ never rises for a
// pre-existing edge, matching core.State.AddHealingEdge), and into G′
// unconditionally. New G neighbors exchange full NoN hellos; existing
// neighbors need nothing.
func (nd *node) onAttach(msg message) {
	b := msg.peer
	_, hadG := nd.gNbrs[b]
	_, hadGp := nd.gpNbrs[b]
	if nd.roundWires == nil {
		nd.roundWires = make(map[int][]wireRec)
	}
	for x := range nd.roundWires {
		// Any other round this endpoint wired for has completed (an
		// endpoint is in at most one active round's region at a time);
		// only the current round can still be aborted.
		if x != msg.victim {
			delete(nd.roundWires, x)
		}
	}
	nd.roundWires[msg.victim] = append(nd.roundWires[msg.victim],
		wireRec{peer: b, addedG: !hadG, addedGp: !hadGp})
	if _, already := nd.gNbrs[b]; !already {
		info := &nbrInfo{initID: msg.peerInitID, curID: msg.peerCurID}
		if hello, ok := nd.pendingHello[b]; ok {
			info.nbrs = hello
			delete(nd.pendingHello, b)
		}
		nd.gNbrs[b] = info
		// Hello: seed the new neighbor's NoN entry for me with my full,
		// current neighborhood (it does the same for me).
		hello := make(map[int]uint64, len(nd.gNbrs))
		for w, info := range nd.gNbrs {
			hello[w] = info.initID
		}
		nd.nonMsgs++
		nd.send(b, message{kind: msgNoNFull, from: nd.id, nonNbrs: hello})
		// Incremental gossip to everyone else: my neighborhood grew.
		for w := range nd.gNbrs {
			if w == b {
				continue
			}
			nd.nonMsgs++
			nd.send(w, message{kind: msgNoNAdd, from: nd.id, nonPeer: b, nonPeerInitID: msg.peerInitID})
		}
	}
	nd.gpNbrs[b] = struct{}{}
	nd.coordMsgs++
	nd.send(msg.leader, message{kind: msgAttachAck, from: nd.id, victim: msg.victim})
}

// onJoinReq wires one attach edge of a joining node (the counterpart of
// core.State.Join, seen from an existing target): record the newcomer —
// whose current label is its initial ID, it being a fresh singleton G′
// component — with its neighborhood (the attach set) as the NoN entry,
// gossip the gained edge to the other neighbors, and ack back with this
// node's own label and full neighborhood so the newcomer's NoN table
// entry is complete. No G′ state changes: join edges are real-network
// edges, not healing edges.
func (nd *node) onJoinReq(msg message) {
	v := msg.from
	non := make(map[int]uint64, len(msg.nonNbrs))
	for w, id := range msg.nonNbrs {
		non[w] = id
	}
	nd.gNbrs[v] = &nbrInfo{initID: msg.nonPeerInitID, curID: msg.nonPeerInitID, nbrs: non}
	for w := range nd.gNbrs {
		if w == v {
			continue
		}
		nd.nonMsgs++
		nd.send(w, message{kind: msgNoNAdd, from: nd.id, nonPeer: v, nonPeerInitID: msg.nonPeerInitID})
	}
	hello := make(map[int]uint64, len(nd.gNbrs))
	for w, info := range nd.gNbrs {
		hello[w] = info.initID
	}
	nd.nonMsgs++
	nd.send(v, message{kind: msgJoinAck, from: nd.id, label: nd.curID, nonNbrs: hello})
}

func (nd *node) onAttachAck(x int) {
	hs, ok := nd.heals[x]
	if !ok {
		panic(fmt.Sprintf("dist: leader %d got attach ack for unknown round (victim %d)", nd.id, x))
	}
	hs.acksLeft--
	if hs.acksLeft == 0 {
		nd.startFlood(x, hs)
	}
}

// startFlood launches step 5 of Algorithm 1 once the reconstruction tree
// is fully wired: compute MINID over the reconnection set and push a
// hop-tagged wave at every member whose label must drop. Waiting for all
// attach acks first means the wave always travels the post-heal G′, so
// adoption sets and notification fan-outs match the sequential engine.
func (nd *node) startFlood(x int, hs *healState) {
	defer nd.finishRound(x, hs)
	if len(hs.rt) == 0 {
		return
	}
	if !nd.nw.noteFloodStarted(nd.curEpoch) {
		// The epoch was aborted by crash recovery while the last attach
		// ack was in flight: no label may change.
		return
	}
	minID := hs.rt[0].curID
	for _, rep := range hs.rt[1:] {
		if rep.curID < minID {
			minID = rep.curID
		}
	}
	for _, rep := range hs.rt {
		if rep.curID > minID {
			nd.coordMsgs++
			nd.send(rep.from, message{kind: msgLabelFlood, from: nd.id, victim: x, label: minID, hops: 0})
		}
	}
}

func (nd *node) finishRound(x int, hs *healState) {
	delete(nd.heals, x)
}

// onLabelFlood handles one MINID wave message. A smaller label is
// adopted and propagated: the Lemma 8 notification to every G neighbor
// (counted in msgSent), and the wave itself, one hop deeper, to every G′
// neighbor. A wave for the already-adopted label with a smaller hop tag
// is a shorter path discovered late; the node relaxes its recorded depth
// and re-forwards (a distributed BFS relaxation), so the per-node depths
// converge to true G′ distances from the reconnection set regardless of
// delivery order — making the Lemma 9 accounting deterministic and equal
// to the sequential engine's. Anything else is stale and dies here,
// which is what terminates the flood.
func (nd *node) onLabelFlood(victim int, label uint64, hops int) {
	switch {
	case label < nd.curID: // adopt
		nd.curID = label
		nd.floodRound = victim
		nd.floodHops = hops
		for w := range nd.gNbrs {
			nd.msgSent++
			nd.send(w, message{kind: msgLabelNotify, from: nd.id, label: label})
		}
	case label == nd.curID && victim == nd.floodRound && hops < nd.floodHops: // relax
		nd.floodHops = hops
	default:
		return
	}
	nd.nw.recordFloodDepth(nd.curEpoch, nd.id, hops)
	for w := range nd.gpNbrs {
		nd.coordMsgs++
		nd.send(w, message{kind: msgLabelFlood, from: nd.id, victim: victim, label: label, hops: hops + 1})
	}
}

// --- Batch-kill epoch handlers (OpBatch; see batch.go) ---

// onBatchProbe starts the cluster probe: announce my current root guess
// to every neighbor that is dying with me. The minimum victim index
// relaxes through the dead set exactly like core.ClusterDeletions'
// union-find, so each connected dead cluster converges on one root.
func (nd *node) onBatchProbe() {
	if !nd.dying {
		panic(fmt.Sprintf("dist: node %d got batch probe order without dying", nd.id))
	}
	for w := range nd.gNbrs {
		if _, dead := nd.batchSet[w]; dead {
			nd.coordMsgs++
			nd.send(w, message{kind: msgClusterProbe, from: nd.id, root: nd.batchRoot})
		}
	}
}

// onClusterProbe relaxes the cluster-root guess and re-forwards on
// improvement; the flood terminates because roots only ever shrink.
func (nd *node) onClusterProbe(root int) {
	if !nd.dying {
		panic(fmt.Sprintf("dist: survivor %d got a cluster probe", nd.id))
	}
	if root >= nd.batchRoot {
		return
	}
	nd.batchRoot = root
	for w := range nd.gNbrs {
		if _, dead := nd.batchSet[w]; dead {
			nd.coordMsgs++
			nd.send(w, message{kind: msgClusterProbe, from: nd.id, root: root})
		}
	}
}

// onBatchCollect convergecasts this victim's surviving neighbors — the
// cluster's healing candidates, with initial IDs from the local
// adjacency — to the cluster root (possibly itself).
func (nd *node) onBatchCollect() {
	if !nd.dying {
		panic(fmt.Sprintf("dist: node %d got batch collect without dying", nd.id))
	}
	cands := make(map[int]uint64)
	for w, info := range nd.gNbrs {
		if _, dead := nd.batchSet[w]; !dead {
			cands[w] = info.initID
		}
	}
	nd.coordMsgs++
	nd.send(nd.batchRoot, message{kind: msgClusterJoin, from: nd.id, nonNbrs: cands})
}

// onClusterJoin (roots only) accumulates the cluster's candidate union.
func (nd *node) onClusterJoin(cands map[int]uint64) {
	if nd.batchCand == nil {
		nd.batchCand = make(map[int]uint64)
	}
	for v, id := range cands {
		nd.batchCand[v] = id
	}
}

// onBatchCommit is the victim's last act: tombstones to every surviving
// neighbor, and — when this victim is a cluster root with at least one
// candidate — the leader handoff: the lowest-initial-ID candidate gets
// the candidate set and will run the cluster's heal. Clusters whose
// members have no survivors are simply not healed, matching the
// sequential engine's empty-candidate skip. The node then turns zombie
// and archives its counters.
func (nd *node) onBatchCommit() {
	if !nd.dying {
		panic(fmt.Sprintf("dist: node %d got batch commit without dying", nd.id))
	}
	for w := range nd.gNbrs {
		if _, dead := nd.batchSet[w]; dead {
			continue
		}
		nd.coordMsgs++
		nd.send(w, message{kind: msgBatchNotice, from: nd.id, victim: nd.id})
	}
	if nd.batchRoot == nd.id && len(nd.batchCand) > 0 {
		leader := -1
		var best uint64
		for v, id := range nd.batchCand {
			if leader < 0 || id < best {
				leader, best = v, id
			}
		}
		nd.nw.recordBatchCluster(nd.curEpoch, nd.id, leader)
		nd.coordMsgs++
		nd.send(leader, message{kind: msgBatchLead, from: nd.id, victim: nd.id, nonNbrs: nd.batchCand})
	}
	nd.zombie = true
	nd.nw.storeFinal(nd.id, finalStats{nd.msgSent, nd.coordMsgs, nd.nonMsgs})
}

// onBatchNotice is the survivor side of a batch tombstone: drop the
// victim from the local topology and gossip the loss. Unlike
// onDeathNotice there is no election and no report — the dying root has
// already appointed the cluster leader, which solicits reports once the
// supervisor opens the cluster's heal.
func (nd *node) onBatchNotice(x int) {
	if _, ok := nd.gNbrs[x]; !ok {
		panic(fmt.Sprintf("dist: node %d got batch notice for non-neighbor %d", nd.id, x))
	}
	delete(nd.gNbrs, x)
	delete(nd.gpNbrs, x)
	for w := range nd.gNbrs {
		nd.nonMsgs++
		nd.send(w, message{kind: msgNoNRemove, from: nd.id, nonPeer: x})
	}
}

// onBatchHealStart opens this cluster's heal: order every candidate to
// probe its G′ component with its own initial ID.
func (nd *node) onBatchHealStart(root int) {
	hs, ok := nd.heals[root]
	if !ok || !hs.batch {
		panic(fmt.Sprintf("dist: node %d asked to lead unknown batch cluster %d", nd.id, root))
	}
	for v := range hs.cands {
		nd.coordMsgs++
		nd.send(v, message{kind: msgCompProbeStart, from: nd.id, victim: root})
	}
}

// probeRelax is the G′ component probe: keep (and re-forward) the
// smallest candidate initial ID seen for the cluster's round. After
// quiescence every candidate's probeBest is the minimum candidate ID of
// its structural G′ component — candidates whose own ID equals it are
// exactly the per-component representatives core.DeleteBatchAndHeal
// picks from Gp.ComponentLabels().
func (nd *node) probeRelax(root int, id uint64) {
	if nd.probeRoot != root {
		nd.probeRoot, nd.probeBest = root, id
	} else if id < nd.probeBest {
		nd.probeBest = id
	} else {
		return
	}
	for w := range nd.gpNbrs {
		nd.coordMsgs++
		nd.send(w, message{kind: msgCompProbe, from: nd.id, victim: root, label: nd.probeBest})
	}
}

// onBatchHealWire solicits every candidate's heal report now that the
// component probes have quiesced.
func (nd *node) onBatchHealWire(root int) {
	hs := nd.heals[root]
	hs.compMin = make(map[int]uint64, len(hs.cands))
	for v := range hs.cands {
		nd.coordMsgs++
		nd.send(v, message{kind: msgBatchReportReq, from: nd.id, victim: root})
	}
}

// onBatchReportReq answers the leader with this candidate's heal report
// and the component minimum its probe converged on.
func (nd *node) onBatchReportReq(root, leader int) {
	if nd.probeRoot != root {
		panic(fmt.Sprintf("dist: node %d reporting for cluster %d but probed %d", nd.id, root, nd.probeRoot))
	}
	nd.coordMsgs++
	nd.send(leader, message{
		kind: msgBatchReport, from: nd.id, victim: root, label: nd.probeBest,
		report: healReport{from: nd.id, initID: nd.initID, curID: nd.curID, delta: nd.delta()},
	})
}

// onBatchReport collects one candidate report; once all are in, the
// leader wires the representatives. Batch clusters always use DASH's
// complete binary tree — core.DeleteBatchAndHeal applies the batch-DASH
// rule regardless of which healer handles single deletions — so this
// path ignores the network's HealerKind.
func (nd *node) onBatchReport(root int, rep healReport, compMin uint64) {
	hs := nd.heals[root]
	hs.reports[rep.from] = rep
	hs.compMin[rep.from] = compMin
	if hs.wired || len(hs.reports) < len(hs.cands) {
		return
	}
	hs.wired = true
	var rt []healReport
	for v, r := range hs.reports {
		if hs.compMin[v] == r.initID {
			rt = append(rt, r)
		}
	}
	sortByDeltaID(rt)
	hs.rt = rt
	nd.sendAttachOrders(root, hs, treeEdges(rt))
}

// --- Crash-recovery handlers (recovery.go's node side) ---

// onEpochAbort unwinds this node's share of a kill epoch torn by a
// crash. The epoch is pre-flood by construction, so the only local
// mutations are the healing edges recorded in roundWires (undone here,
// with retraction gossip), leader scratch state (discarded), and
// buffered hellos (cleared — only the torn round's strays can be
// buffered, since completed rounds drain their hellos before the epoch
// ends). The victim's death itself stays: the recovery epoch re-heals
// it as part of the crashed set.
func (nd *node) onEpochAbort(msg message) {
	if nd.abortedEpochs == nil {
		nd.abortedEpochs = make(map[uint64]struct{})
	}
	nd.abortedEpochs[msg.epoch] = struct{}{}
	if len(nd.abortedEpochs) > 8 {
		// At most one abort is ever in flight, so older entries' traffic
		// has fully drained; keep the guard set bounded.
		oldest := msg.epoch
		for e := range nd.abortedEpochs {
			if e < oldest {
				oldest = e
			}
		}
		delete(nd.abortedEpochs, oldest)
	}
	x := msg.victim
	for _, rec := range nd.roundWires[x] {
		if rec.addedGp {
			delete(nd.gpNbrs, rec.peer)
		}
		if rec.addedG {
			delete(nd.gNbrs, rec.peer)
			for w := range nd.gNbrs {
				nd.nonMsgs++
				nd.send(w, message{kind: msgNoNRemove, from: nd.id, nonPeer: rec.peer})
			}
		}
	}
	delete(nd.roundWires, x)
	delete(nd.heals, x)
	if len(nd.pendingHello) > 0 {
		nd.pendingHello = make(map[int]map[int]uint64)
	}
}

// onCrashNotice is the survivor side of a crashed node's tombstone:
// like onDeathNotice but lenient (the edge may already be gone — the
// aborted epoch's death notice, when processed, removed it) and with no
// election or report, since the supervisor appoints the recovery
// leaders itself.
func (nd *node) onCrashNotice(w int) {
	if _, ok := nd.gNbrs[w]; !ok {
		return
	}
	delete(nd.gNbrs, w)
	delete(nd.gpNbrs, w)
	for u := range nd.gNbrs {
		nd.nonMsgs++
		nd.send(u, message{kind: msgNoNRemove, from: nd.id, nonPeer: w})
	}
}

func (nd *node) snapshot() nodeSnap {
	snap := nodeSnap{
		id:        nd.id,
		curID:     nd.curID,
		delta:     nd.delta(),
		gNbrs:     make([]int, 0, len(nd.gNbrs)),
		gpNbrs:    make([]int, 0, len(nd.gpNbrs)),
		msgSent:   nd.msgSent,
		coordMsgs: nd.coordMsgs,
		nonMsgs:   nd.nonMsgs,
	}
	for w := range nd.gNbrs {
		snap.gNbrs = append(snap.gNbrs, w)
	}
	for w := range nd.gpNbrs {
		snap.gpNbrs = append(snap.gpNbrs, w)
	}
	return snap
}
