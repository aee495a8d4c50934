package dist

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
)

// nbrInfo is everything a node knows about one G neighbor v: its
// immutable initial ID, its current component label (kept fresh by
// msgLabelNotify), and — the paper's neighbor-of-neighbor assumption —
// v's own neighborhood with initial IDs, kept fresh by NoN gossip (nil
// until v's hello or join ack arrives). The NoN table is what lets the
// survivors of a deletion agree on a leader and on the set of orphans
// without any central coordinator.
type nbrInfo struct {
	v      int
	initID uint64
	curID  uint64
	nbrs   nonTable
}

// heldHello is a msgNoNFull buffered until its edge's attach order.
type heldHello struct {
	from int
	nbrs nonTable
}

// healState is the leader's per-round scratchpad while it collects the
// orphans' heal reports and, later, the attach acks. Batch cluster heals
// (keyed by the cluster root, a dead node index, so the keys never
// collide with single-kill victims) reuse the same scratchpad: reps is
// the representative set the supervisor's msgBatchHealStart handed over.
type healState struct {
	victimCurID uint64
	expect      nonTable // orphans that must report (the victim's NoN
	// table); nil until the leader has itself processed the death notice
	reports  map[int]healReport
	acksLeft int
	rt       []healReport // the sorted reconnection set, kept for the flood
	wired    bool

	reps nonTable // batch: the cluster's representatives
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

	gNbrs  nbrList
	gpNbrs nodeSet // subset of gNbrs: edges also in G′

	// pendingHello buffers a msgNoNFull that arrived before this node
	// processed its own attach order for the same new edge (the leader
	// sends the two attach orders back to back, so the peer's hello can
	// overtake ours). onAttach drains it into the fresh nbrInfo. Sorted
	// by sender.
	pendingHello []heldHello

	heals map[int]*healState // rounds this node is leading, by victim

	// floodRound/floodHops track the current round's MINID wave: the
	// victim whose round this label belongs to and the smallest hop tag
	// seen so far, so the wave relaxes to true G′ distances and the
	// Lemma 9 depth accounting is deterministic (and equal to the
	// sequential BFS depth) rather than first-arrival order.
	floodRound int
	floodHops  int

	// zombie marks a batch victim after msgBatchDie: it keeps draining
	// its mailbox (so NoN gossip from survivors processing their
	// tombstones cannot wedge quiescence) but drops everything until the
	// supervisor's msgStop.
	zombie bool

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
		nw:         nw,
		id:         v,
		initID:     id,
		curID:      id,
		initDeg:    deg,
		gNbrs:      make(nbrList, 0, tableCap(deg)),
		heals:      make(map[int]*healState),
		floodRound: -1,
	}
}

// findHello returns the position of the buffered hello from the given
// sender in pendingHello, or where it would go, and whether it is there.
func (nd *node) findHello(from int) (int, bool) {
	return slices.BinarySearchFunc(nd.pendingHello, from, func(h heldHello, from int) int {
		return cmp.Compare(h.from, from)
	})
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
		// A batch victim: only NoN gossip from survivors processing
		// their tombstones can still arrive (and the supervisor's
		// msgStop). Anything else is a protocol bug worth failing
		// loudly on.
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
		if info := nd.gNbrs.find(msg.from); info != nil {
			info.curID = msg.label
		}
	case msgNoNFull:
		if info := nd.gNbrs.find(msg.from); info != nil {
			info.nbrs = msg.nonNbrs
		} else {
			// The peer's hello overtook our own attach order for the
			// new edge; hold it until onAttach creates the entry.
			if i, ok := nd.findHello(msg.from); ok {
				nd.pendingHello[i].nbrs = msg.nonNbrs
			} else {
				nd.pendingHello = slices.Insert(nd.pendingHello, i, heldHello{msg.from, msg.nonNbrs})
			}
		}
	case msgNoNAdd:
		if info := nd.gNbrs.find(msg.from); info != nil && info.nbrs != nil {
			info.nbrs.set(msg.peer, msg.peerInitID)
		} else if i, ok := nd.findHello(msg.from); ok {
			// Same-sender FIFO guarantees the hello precedes any
			// incremental gossip, so a buffered hello is the only other
			// place an update can land.
			nd.pendingHello[i].nbrs.set(msg.peer, msg.peerInitID)
		}
	case msgNoNRemove:
		if info := nd.gNbrs.find(msg.from); info != nil && info.nbrs != nil {
			info.nbrs.remove(msg.peer)
		} else if i, ok := nd.findHello(msg.from); ok {
			nd.pendingHello[i].nbrs.remove(msg.peer)
		}
	case msgJoinReq:
		nd.onJoinReq(msg)
	case msgJoinAck:
		if info := nd.gNbrs.find(msg.from); info != nil {
			info.curID = msg.label
			info.nbrs = msg.nonNbrs // freshly built per ack; never shared
		}
	case msgSnapshot:
		msg.reply <- nd.snapshot()
	case msgBatchDie:
		nd.zombie = true
		nd.nw.storeFinal(nd.id, finalStats{nd.msgSent, nd.coordMsgs, nd.nonMsgs})
	case msgBatchHealStart:
		nd.onBatchHealStart(msg.victim, msg.nonNbrs)
	case msgBatchReportReq:
		nd.onBatchReportReq(msg.victim, msg.from)
	case msgBatchReport:
		nd.onBatchReport(msg.victim, msg.report)
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
	for i := range nd.gNbrs {
		nd.coordMsgs++
		nd.send(nd.gNbrs[i].v, message{kind: msgDeathNotice, from: nd.id, victim: nd.id})
	}
	nd.nw.storeFinal(nd.id, finalStats{nd.msgSent, nd.coordMsgs, nd.nonMsgs})
}

// onDeathNotice is the orphan side of a deletion: drop the victim from
// the local topology, gossip the loss, deterministically pick the round's
// leader from the NoN table, and send the leader this orphan's heal
// report. When this orphan IS the leader it also freezes the expected
// reporter set from its (pre-deletion) view of the victim's neighborhood.
func (nd *node) onDeathNotice(x int) {
	info, ok := nd.gNbrs.remove(x)
	if !ok {
		panic(fmt.Sprintf("dist: node %d got death notice for non-neighbor %d", nd.id, x))
	}
	wasGp := nd.gpNbrs.remove(x)

	// NoN gossip: my neighborhood shrank.
	nd.gossipRemove(x)

	// Leader election, resolved locally: every orphan holds the same NoN
	// view of the victim's neighborhood (quiescence between rounds keeps
	// the tables consistent), so all pick the same minimum-initial-ID
	// orphan without exchanging a single extra message.
	if info.nbrs == nil {
		panic(fmt.Sprintf("dist: node %d has no NoN entry for dead neighbor %d", nd.id, x))
	}
	leader := nd.id
	best := nd.initID
	for _, e := range info.nbrs {
		if e.id < best {
			leader, best = e.v, e.id
		}
	}

	if leader == nd.id {
		hs := nd.healFor(x)
		hs.victimCurID = info.curID
		// The dead neighbor's table is no longer gossiped into, so it
		// can serve as the expected reporter set as it is.
		hs.expect = info.nbrs
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
	for _, e := range hs.expect {
		if _, ok := hs.reports[e.v]; !ok {
			panic(fmt.Sprintf("dist: leader %d: report count full but orphan %d missing", nd.id, e.v))
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
	_, hadG := nd.gNbrs.search(b)
	hadGp := nd.gpNbrs.has(b)
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
	if !hadG {
		info := nbrInfo{v: b, initID: msg.peerInitID, curID: msg.peerCurID}
		if i, ok := nd.findHello(b); ok {
			info.nbrs = nd.pendingHello[i].nbrs
			nd.pendingHello = slices.Delete(nd.pendingHello, i, i+1)
		}
		nd.gNbrs.insert(info)
		// Hello: seed the new neighbor's NoN entry for me with my full,
		// current neighborhood (it does the same for me).
		nd.nonMsgs++
		nd.send(b, message{kind: msgNoNFull, from: nd.id, nonNbrs: nd.gNbrs.hello()})
		// Incremental gossip to everyone else: my neighborhood grew.
		nd.gossipAdd(b, msg.peerInitID)
	}
	nd.gpNbrs.add(b)
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
	// The attach set is one table shared by every target's request.
	non := append(make(nonTable, 0, tableCap(len(msg.nonNbrs))), msg.nonNbrs...)
	nd.gNbrs.insert(nbrInfo{v: v, initID: msg.peerInitID, curID: msg.peerInitID, nbrs: non})
	nd.gossipAdd(v, msg.peerInitID)
	nd.nonMsgs++
	nd.send(v, message{kind: msgJoinAck, from: nd.id, label: nd.curID, nonNbrs: nd.gNbrs.hello()})
}

// gossipAdd tells every G neighbor but v itself that this node gained
// neighbor v (incremental NoN gossip).
func (nd *node) gossipAdd(v int, initID uint64) {
	for i := range nd.gNbrs {
		if w := nd.gNbrs[i].v; w != v {
			nd.nonMsgs++
			nd.send(w, message{kind: msgNoNAdd, from: nd.id, peer: v, peerInitID: initID})
		}
	}
}

// gossipRemove tells every G neighbor that this node lost neighbor v.
func (nd *node) gossipRemove(v int) {
	for i := range nd.gNbrs {
		nd.nonMsgs++
		nd.send(nd.gNbrs[i].v, message{kind: msgNoNRemove, from: nd.id, peer: v})
	}
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
		for i := range nd.gNbrs {
			nd.msgSent++
			nd.send(nd.gNbrs[i].v, message{kind: msgLabelNotify, from: nd.id, label: label})
		}
	case label == nd.curID && victim == nd.floodRound && hops < nd.floodHops: // relax
		nd.floodHops = hops
	default:
		return
	}
	nd.nw.recordFloodDepth(nd.curEpoch, nd.id, hops)
	for _, w := range nd.gpNbrs {
		nd.coordMsgs++
		nd.send(w, message{kind: msgLabelFlood, from: nd.id, victim: victim, label: label, hops: hops + 1})
	}
}

// --- Batch cluster-heal handlers (OpBatch and crash recovery; see batch.go) ---

// onCrashNotice is the survivor side of a batch heal's tombstone: drop
// the victim from the local topology and gossip the loss. Unlike
// onDeathNotice it is lenient (after a crash the edge may already be
// gone — the aborted epoch's death notice, when processed, removed it)
// and there is no election or report: the supervisor appoints the
// cluster leader, which solicits reports once the cluster's heal opens.
func (nd *node) onCrashNotice(w int) {
	if _, ok := nd.gNbrs.remove(w); !ok {
		return
	}
	nd.gpNbrs.remove(w)
	nd.gossipRemove(w)
}

// onBatchHealStart opens this cluster's heal: solicit a heal report
// from every representative the supervisor picked.
func (nd *node) onBatchHealStart(root int, reps nonTable) {
	hs := nd.healFor(root)
	hs.reps = reps // built by the supervisor; never mutated again
	for _, e := range reps {
		nd.coordMsgs++
		nd.send(e.v, message{kind: msgBatchReportReq, from: nd.id, victim: root})
	}
}

// onBatchReportReq answers the leader with this representative's heal
// report.
func (nd *node) onBatchReportReq(root, leader int) {
	nd.coordMsgs++
	nd.send(leader, message{
		kind: msgBatchReport, from: nd.id, victim: root,
		report: healReport{from: nd.id, initID: nd.initID, curID: nd.curID, delta: nd.delta()},
	})
}

// onBatchReport collects one representative's report; once all are in,
// the leader wires them. Batch clusters always use DASH's complete
// binary tree — core.DeleteBatchAndHeal applies the batch-DASH rule
// regardless of which healer handles single deletions — so this path
// ignores the network's HealerKind.
func (nd *node) onBatchReport(root int, rep healReport) {
	hs := nd.heals[root]
	hs.reports[rep.from] = rep
	if hs.wired || len(hs.reports) < len(hs.reps) {
		return
	}
	hs.wired = true
	rt := make([]healReport, 0, len(hs.reports))
	for _, r := range hs.reports {
		rt = append(rt, r)
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
			nd.gpNbrs.remove(rec.peer)
		}
		if rec.addedG {
			nd.gNbrs.remove(rec.peer)
			nd.gossipRemove(rec.peer)
		}
	}
	delete(nd.roundWires, x)
	delete(nd.heals, x)
	nd.pendingHello = nil
}

func (nd *node) snapshot() nodeSnap {
	snap := nodeSnap{
		id:        nd.id,
		curID:     nd.curID,
		delta:     nd.delta(),
		gNbrs:     make([]int, len(nd.gNbrs)),
		gpNbrs:    slices.Clone([]int(nd.gpNbrs)),
		msgSent:   nd.msgSent,
		coordMsgs: nd.coordMsgs,
		nonMsgs:   nd.nonMsgs,
	}
	for i := range nd.gNbrs {
		snap.gNbrs[i] = nd.gNbrs[i].v
	}
	return snap
}
