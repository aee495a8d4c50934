package dist

// The distributed batch-kill protocol: footnote 1 of the paper
// generalized to an actual message-passing epoch. A whole victim set
// dies "at once" (between healing rounds); the survivors must heal every
// connected cluster of the dead set as one super-deletion, computing
// bit-for-bit the state core.DeleteBatchAndHeal produces.
//
// The epoch pipeline stages the batch on its own per-epoch quiescence
// boundaries — each stage's messages have all been processed before the
// next stage's are sent, without the rest of the network going quiet:
//
//  1. Die. Every victim learns the victim set and enters dying mode.
//  2. Cluster probe. Victims flood the minimum victim index through
//     victim-victim edges; each connected dead cluster converges on one
//     root (the distributed analogue of core.ClusterDeletions, and the
//     same per-cluster ordering key the sequential healer uses).
//  3. Collect. Each victim convergecasts its surviving neighbors — the
//     cluster's healing candidates, with initial IDs — to its root.
//  4. Commit. Victims broadcast batch tombstones to survivors (who
//     update topology and NoN state but, unlike a single-kill round,
//     neither elect nor report); each root appoints the cluster's
//     surviving leader — the lowest-initial-ID candidate — and hands it
//     the candidate set. Victims then turn zombie and are stopped.
//  5. Heal, one child epoch per cluster. Per cluster: the leader orders
//     a G′ component probe (a min-candidate-initial-ID relaxation
//     flood, the structural equivalent of Gp.ComponentLabels — stale
//     labels cannot tell apart the fragments a multi-node deletion
//     splits a G′ tree into), then collects heal reports, wires one
//     representative per component as DASH's complete binary tree, and
//     floods MINID exactly as a single-kill round does. Clusters whose
//     heal regions are disjoint run concurrently; intersecting clusters
//     chain in ascending root order — the order core.DeleteBatchAndHeal
//     processes them, which matters because each cluster's heal changes
//     the δs, labels, and G′ components the next cluster's heal
//     observes. See pipeline.go.
//
// Lemma 9 accounting matches the sequential engine's: each cluster's
// MINID wave contributes its own depth to the flood sums, and the whole
// epoch counts as one round.

import "time"

// batchCluster is one dead cluster's supervisor-side record: its root
// (smallest member index) and the surviving leader the root appointed.
type batchCluster struct {
	root, leader int
}

// recordBatchCluster notes a cluster's elected leader under its batch
// epoch; called by dying roots during the commit stage (like
// recordFloodDepth, supervisor-side bookkeeping written from node
// handlers under the network mutex).
func (nw *Network) recordBatchCluster(epoch uint64, root, leader int) {
	nw.mu.Lock()
	nw.batchClusters[epoch] = append(nw.batchClusters[epoch], batchCluster{root, leader})
	nw.mu.Unlock()
}

// KillBatch deletes every node in vs simultaneously and blocks until the
// whole batch epoch — correlated death notices, per-cluster leader
// election, cluster heals — has completed, like the sequential engine's
// DeleteBatchAndHeal. Duplicates are ignored; it panics if any victim is
// dead (mirroring core.State.RemoveBatch) or if the epoch wedges.
func (nw *Network) KillBatch(vs []int) {
	if err := nw.KillBatchWithTimeout(vs, DefaultKillTimeout); err != nil {
		panic(err)
	}
}

// KillBatchWithTimeout is KillBatch with an explicit deadline covering
// the whole epoch. On timeout it returns an error naming the wedged
// stage and carrying the diagnostic dump.
func (nw *Network) KillBatchWithTimeout(vs []int, timeout time.Duration) error {
	return nw.KillBatchAsync(vs).Wait(timeout)
}

// KillBatchAsync schedules the batch deletion as a pipelined epoch and
// returns immediately; the returned handle completes when every
// cluster's heal has drained.
func (nw *Network) KillBatchAsync(vs []int) *Epoch {
	return nw.pipe.issueBatch(vs)
}
