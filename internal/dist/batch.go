package dist

// The batch heal: footnote 1 of the paper generalized to a distributed
// epoch. A whole victim set W dies "at once" (between healing rounds);
// the survivors must heal every connected cluster of the dead set as one
// super-deletion, computing bit-for-bit the state core.DeleteBatchAndHeal
// produces. Two epochs run it: an OpBatch epoch, and the crash-recovery
// epoch (recovery.go), which heals a crashed node plus an aborted kill's
// victim as one batch.
//
// The supervisor stages the front half itself, from its topology mirror,
// on the epoch's own quiescence boundaries — each stage's messages have
// all been processed before the next stage's are sent, without the rest
// of the network going quiet:
//
//  1. Die (OpBatch only). Every victim archives its counters and turns
//     zombie: a black hole that drains the NoN gossip still addressed to
//     it until it is stopped. Crashed nodes already are black holes.
//  2. Notice. The supervisor sends msgCrashNotice tombstones to W's
//     surviving mirror neighbors, who drop their edges to W and gossip
//     the loss but, unlike a single-kill round, neither elect nor report.
//  3. Lead and stop. deadClusters derives the dead clusters and their
//     healing candidates on the pre-removal mirror (the supervisor-side
//     core.ClusterDeletions) and appoints each cluster's leader, the
//     lowest-initial-ID candidate; the supervisor then drops W from the
//     mirror and stops the black holes.
//  4. Heal, one child epoch per cluster. At the cluster's launch the
//     supervisor picks its representatives on the mirror's G′ with
//     graph.Region.Representatives, the rule core.DeleteBatchAndHeal
//     calls (one lowest-initial-ID candidate per G′ component), and
//     hands them to the leader with msgBatchHealStart. The leader
//     collects their heal reports, wires them as DASH's complete binary
//     tree, and floods MINID exactly as a single-kill round does.
//     Clusters whose heal regions are disjoint run concurrently;
//     intersecting clusters chain in ascending root order — the order
//     core.DeleteBatchAndHeal processes them, which matters because each
//     cluster's heal changes the δs, labels, and G′ components the next
//     cluster's heal observes.
//
// Why the mirror's G′ is exact where the representatives are read. At a
// cluster's launch the mirror holds every completed epoch (each applies
// its attach orders as it completes) and no member of W: stage 3 removed
// them after stage 2's tombstones, which made every survivor drop its G′
// edges to W, had drained. An aborted kill's healing edges never reach
// the mirror, and its abort unwinds them at the nodes before the
// recovery epoch launches. So the mirror lacks only the edges of epochs
// still running, and each of those is disjoint from the cluster's effective
// region. A running sibling is, or the cluster would have chained behind
// it. A running top-level epoch is disjoint from the batch's effective
// region, or one of the two would wait for the other, and the batch's
// region holds every cluster's (pipeline.go's frozen effective regions).
// A running epoch wires only members of its own region, whose G′
// components lie in that region, while the candidates' components at
// launch — their components after the removal, merged by the siblings
// the cluster chained behind — lie in the cluster's. So no running
// epoch's edge touches a candidate's component, and the mirror's
// components of the candidates are the nodes'. Picking at
// scheduleClusters would miss the merges of those siblings, and picking
// before stage 3's removal would join fragments through dead nodes.
//
// Lemma 9 accounting matches the sequential engine's: each cluster's
// MINID wave contributes its own depth to the flood sums, and the whole
// epoch counts as one round.

import (
	"fmt"
	"sort"
)

// batchCluster is one dead cluster's supervisor-side record: its root
// (smallest member index) and the surviving leader appointed for it.
type batchCluster struct {
	root, leader int
}

// advanceBatch is the stage machine of an OpBatch epoch and of a
// recovery epoch, which launches straight into the notice stage.
func (pi *pipeline) advanceBatch(es *epochState) {
	switch es.stage {
	case "die":
		pi.sendNotices(es)
	case "notice":
		pi.leadClusters(es)
	case "lead":
		pi.scheduleClusters(es)
	}
}

// sendNotices sends tombstones for every member of W to its surviving
// pre-removal mirror neighbors. The stage drains when every survivor
// has dropped its edges to W and finished the resulting NoN gossip.
func (pi *pipeline) sendNotices(es *epochState) {
	es.stage = "notice"
	type notice struct{ to, of int }
	var notices []notice
	for _, w := range es.batch {
		for _, u32 := range pi.mirG.Neighbors(w) {
			u := int(u32)
			if _, dead := es.batchSet[u]; !dead {
				notices = append(notices, notice{to: u, of: w})
			}
		}
	}
	// Per recipient, order notices about exited members of W (an aborted
	// kill's victim) before notices about crashed ones. Dropping an edge
	// to w makes the survivor gossip NoNRemove(w) to its remaining
	// G-neighbors, and those may still include other members of W: the
	// aborted epoch's death notice was discarded by the abort guard, so
	// the edge to the kill victim can outlive it. Gossip to a crashed
	// member lands in its black hole and drains; gossip to the exited
	// victim would queue forever (it has retired, with no black
	// hole). Removing the exited members' edges first makes them
	// unreachable before any gossip fires. Supervisor sends are
	// per-recipient FIFO, so this order is the processing order. (Only
	// a recovery mixes the two: a batch's victims are all zombies.)
	sort.Slice(notices, func(i, j int) bool {
		if notices[i].to != notices[j].to {
			return notices[i].to < notices[j].to
		}
		ci, cj := pi.crashed[notices[i].of], pi.crashed[notices[j].of]
		if ci != cj {
			return cj
		}
		return notices[i].of < notices[j].of
	})
	pi.stageSend(es, func() {
		for _, nt := range notices {
			pi.nw.send(nt.to, message{kind: msgCrashNotice, from: srcSupervisor, epoch: es.id, victim: nt.of})
		}
	})
}

// leadClusters runs once the survivors have processed every tombstone.
// It derives W's dead clusters, appoints each one's leader — the lowest
// candidate initial ID — as a child epoch in ascending root order, marks
// W dead, drops it from the mirror, and sends each black hole its stop.
func (pi *pipeline) leadClusters(es *epochState) {
	roots, cands := pi.deadClusters(es)
	led := make([]batchCluster, 0, len(roots))
	for i, r := range roots {
		if len(cands[i]) == 0 {
			continue // no surviving candidate: nothing to heal
		}
		leader := cands[i][0]
		for _, u := range cands[i][1:] {
			if pi.nw.initIDs[u] < pi.nw.initIDs[leader] {
				leader = u
			}
		}
		// Child IDs are drawn in ascending root order.
		es.clusters = append(es.clusters, &epochState{
			id:     pi.nextEpoch,
			kind:   epCluster,
			parent: es,
			root:   r,
			leader: leader,
			attach: cands[i], // candidate set doubles as the region seed
		})
		pi.nextEpoch++
		led = append(led, batchCluster{r, leader})
	}
	es.clustersLeft = len(es.clusters)
	pi.nw.mu.Lock()
	pi.nw.lastClusters = led
	for _, w := range es.batch {
		pi.nw.dead[w] = true
	}
	pi.nw.mu.Unlock()
	for _, w := range es.batch {
		pi.mirG.RemoveNode(w)
		pi.mirGp.RemoveNode(w)
	}
	es.stage = "lead"
	pi.stageSend(es, func() {
		// Every frame the black holes will ever have to consume has
		// drained. An aborted kill's victim is not sent a stop: it
		// already retired at its msgDie.
		for _, w := range es.batch {
			if es.kind == epBatch || pi.crashed[w] {
				pi.nw.send(w, message{kind: msgStop, from: srcSupervisor, epoch: es.id})
			}
		}
	})
}

// launchCluster opens one cluster's heal: it picks the representatives
// on the mirror (see the header for why the mirror is exact here) and
// hands them, with their initial IDs, to the cluster's leader.
func (pi *pipeline) launchCluster(es *epochState) {
	es.stage = fmt.Sprintf("heal[%d]", es.root)
	vs := pi.regionBuf.Representatives(pi.mirGp, es.attach, pi.nw.initIDs)
	reps := make(nonTable, 0, len(vs))
	for _, v := range vs {
		reps.set(v, pi.nw.initIDs[v])
	}
	pi.stageSend(es, func() {
		pi.nw.send(es.leader, message{
			kind: msgBatchHealStart, from: srcSupervisor, epoch: es.id,
			victim: es.root, nonNbrs: reps,
		})
	})
}
