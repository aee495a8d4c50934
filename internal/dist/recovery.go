package dist

// Mid-epoch crash recovery: the supervisor side of the chaos transport's
// fail-stop faults. The chaos transport asks the failure detector for
// permission before killing a node (tryCrash); the supervisor either
// defers the crash (the transport re-arms the crash point and tries
// again at the next matching delivery) or fail-stops the node and
// schedules a recovery epoch that restores the network to exactly the
// state the sequential oracle reaches.
//
// # What a crash may interrupt
//
// A crash is granted only when the victim v is involved in at most one
// incomplete epoch, and that epoch is a launched single-kill E that has
// not started its MINID flood. Everything else defers: joins and batch
// epochs have multi-stage supervisor machinery that cannot be unwound
// locally, a flood that has begun has already mutated labels, and a
// node inside two epochs' regions cannot attribute its partial state.
// The deferral is sound because the fault model is "crash at a named
// protocol step", not "crash at an exact instant" — the point simply
// fires at the next matching delivery.
//
// # Abort is exact because floods are the point of no return
//
// Before its flood, a kill epoch has only (a) removed the victim's
// edges at survivors that processed the death notice, (b) accumulated
// leader scratch state, and (c) wired healing edges recorded locally in
// node.roundWires. No label has changed. So msgEpochAbort can unwind
// the epoch exactly: endpoints drop the recorded healing edges (and
// gossip the retraction), the leader discards its scratchpad, and every
// region member ignores the epoch's residual coordination traffic
// (abortedEpochs guard in node.handle). The victim's death itself is
// NOT undone — x really died — its heal is simply re-run by the
// recovery epoch, which treats {x, v} as one batch deletion.
//
// # The recovery epoch R
//
// R is the batch heal of batch.go applied to W = {v} ∪ {E.victim if E
// was aborted}, entered at its notice stage (the crashed node already is
// a black hole, and the aborted kill's victim already retired): crash
// notices (lenient tombstones) to W's surviving mirror neighbors, then
// cluster derivation on the pre-removal mirror with supervisor-appointed
// leaders (lowest candidate initial ID), then the epCluster child
// machinery: supervisor-picked representatives, report collection,
// batch-DASH tree wiring, MINID flood. The sequential oracle for R is exactly
// core.DeleteBatchAndHeal(W).
//
// # Why the effective-op log stays an oracle
//
// effLog records, in oracle order, the operations that actually mutated
// the network. At crash time the aborted kill's entry is expunged (its
// heal never happened) and R's batch entry is appended at the END:
// launched epochs complete before R runs (they are R's deps), so they
// commute trivially, and crashEligible refuses the crash unless every
// queued (unlaunched) epoch's region is disjoint from R's footprint —
// those epochs execute after R but keep their pre-crash log position,
// which is sound precisely because they commute with R. Keeping queued
// joins in place also keeps slot indices and initial-ID draws aligned
// with issue order, which core replay depends on.

import (
	"fmt"
	"sort"
)

// effEntry tags a log entry with the epoch that produced it, so a crash
// can expunge the aborted kill's entry.
type effEntry struct {
	epoch uint64
	op    Op
}

// EffectiveOps snapshots the effective-operation log: the operations
// that, applied to the sequential engine in order (ReplayEffective),
// must reproduce the drained network bit for bit.
func (nw *Network) EffectiveOps() []Op {
	pi := nw.pipe
	pi.mu.Lock()
	defer pi.mu.Unlock()
	out := make([]Op, len(pi.effLog))
	for i, e := range pi.effLog {
		out[i] = e.op
	}
	return out
}

// Crashed returns the nodes the chaos transport has fail-stopped so
// far, ascending.
func (nw *Network) Crashed() []int {
	pi := nw.pipe
	pi.mu.Lock()
	defer pi.mu.Unlock()
	out := make([]int, 0, len(pi.crashed))
	for v := range pi.crashed {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// CrashCount reports how many crash points have actually fired.
func (nw *Network) CrashCount() int {
	pi := nw.pipe
	pi.mu.Lock()
	defer pi.mu.Unlock()
	return len(pi.crashed)
}

// noteFloodStarted marks an epoch's MINID flood as begun and reports
// whether the leader may proceed. A false return means the epoch was
// aborted by crash recovery while the last attach ack was in flight;
// the leader must not send a single flood message (the abort guarantee
// is "no label has changed").
func (nw *Network) noteFloodStarted(epoch uint64) bool {
	if epoch == 0 {
		return true
	}
	pi := nw.pipe
	pi.mu.Lock()
	defer pi.mu.Unlock()
	es := pi.epochs[epoch]
	if es == nil {
		return true // already completed; nothing can abort it now
	}
	if es.aborted {
		return false
	}
	es.floodStarted = true
	return true
}

// storeCrashStats archives a crashed node's counters without marking
// it retired — the black-holed actor keeps draining its
// mailbox until the recovery epoch's msgStop.
func (nw *Network) storeCrashStats(v int, fs finalStats) {
	nw.mu.Lock()
	nw.deadStats[v] = fs
	nw.mu.Unlock()
}

// tryCrash is the chaos transport's request to fail-stop node v. It
// returns false when the failure detector defers the crash (the caller
// re-arms its crash point). On success the node is black-holed, any
// torn kill epoch is aborted, and a recovery epoch is scheduled.
func (nw *Network) tryCrash(v int) bool {
	pi := nw.pipe
	pi.mu.Lock()
	es, ok := pi.crashEligible(v)
	if !ok {
		pi.mu.Unlock()
		return false
	}
	pi.performCrash(v, es)
	pi.mu.Unlock()
	pi.flush()
	return true
}

// crashable reports whether tryCrash(v) would currently be granted,
// with no side effects. The deterministic fault simulator uses it to
// enable crash events only where they would actually fire.
func (nw *Network) crashable(v int) bool {
	pi := nw.pipe
	pi.mu.Lock()
	_, ok := pi.crashEligible(v)
	pi.mu.Unlock()
	return ok
}

// crashEligible decides (under pi.mu) whether v may crash right now,
// returning the launched kill epoch that must be aborted (nil for a
// standalone crash).
func (pi *pipeline) crashEligible(v int) (*epochState, bool) {
	if pi.recovering {
		return nil, false
	}
	nw := pi.nw
	nw.mu.Lock()
	bad := v < 0 || v >= nw.n || nw.dead[v] || nw.exited[v]
	nw.mu.Unlock()
	if bad || pi.crashed[v] {
		return nil, false
	}
	if _, doomed := pi.pendingVictim[v]; doomed {
		return nil, false
	}

	// v must appear in at most one incomplete epoch (cluster children
	// included), and that epoch must be an abortable kill: launched —
	// so its region is final and its messages identifiable — but
	// pre-flood, so no label has changed yet.
	var hit *epochState
	for _, es := range pi.epochs {
		in := es.universal
		if !in {
			_, in = es.region[v]
		}
		if !in {
			continue
		}
		if hit != nil {
			return nil, false
		}
		hit = es
	}
	if hit != nil && (hit.kind != epKill || !hit.launched || hit.universal ||
		hit.floodStarted || hit.aborted) {
		return nil, false
	}

	// The recovery's own footprint (the batch region of W) must be
	// disjoint from every queued epoch: queued epochs will execute
	// after the recovery but keep their pre-crash position in the
	// effective-op log, which is only sound when they commute with it.
	seeds := append(pi.mirG.AppendNeighbors(nil, v), v)
	if hit != nil {
		seeds = append(pi.mirG.AppendNeighbors(seeds, hit.victim), hit.victim)
	}
	foot, grown := pi.growRegion(seeds)
	if !grown {
		return nil, false
	}
	for _, id := range pi.order {
		es := pi.epochs[id]
		if es == hit || es.launched {
			continue
		}
		if es.universal || intersects(es.region, foot) {
			return nil, false
		}
	}
	return hit, true
}

// performCrash (pi.mu held) fail-stops v, aborts the torn kill epoch es
// (nil for a standalone crash), and schedules the recovery epoch.
// Caller must flush() after unlocking.
func (pi *pipeline) performCrash(v int, es *epochState) {
	nw := pi.nw
	nw.node(v).crashed.Store(true)
	pi.crashed[v] = true
	pi.recovering = true

	W := []int{v}
	if es != nil {
		W = append(W, es.victim)
		sort.Ints(W)
	}
	set := make(map[int]struct{}, len(W))
	for _, w := range W {
		set[w] = struct{}{}
	}

	r := &epochState{
		id:        pi.nextEpoch,
		kind:      epRecover,
		batch:     W,
		batchSet:  set,
		universal: true,
	}
	pi.nextEpoch++
	r.handle = &Epoch{
		id: r.id, nw: nw, done: make(chan struct{}),
		desc: fmt.Sprintf("crash recovery of %v", W),
	}
	// R waits for everything in flight; everything queued waits for R.
	// (Launched epochs have no deps left, so this cannot cycle.)
	r.deps = make(map[uint64]struct{})
	for _, id := range pi.order {
		if pi.epochs[id].launched {
			r.deps[id] = struct{}{}
		}
	}
	pi.epochs[r.id] = r
	pi.order = append(pi.order, r.id)
	for _, id := range pi.order[:len(pi.order)-1] {
		if o := pi.epochs[id]; !o.launched {
			o.deps[r.id] = struct{}{}
		}
	}
	for _, w := range W {
		pi.pendingVictim[w] = r.id
	}

	// Rewrite the effective-op log: the aborted kill's heal never
	// happened; the recovery is a batch deletion of W ordered after
	// every launched epoch (see the package comment for why appending
	// at the end is sound).
	if es != nil {
		for i, e := range pi.effLog {
			if e.epoch == es.id {
				pi.effLog = append(pi.effLog[:i], pi.effLog[i+1:]...)
				break
			}
		}
	}
	pi.effLog = append(pi.effLog, effEntry{
		epoch: r.id,
		op:    Op{Kind: OpBatch, Batch: append([]int(nil), W...)},
	})

	if es != nil {
		es.aborted = true
		r.adopts = append(r.adopts, es.handle)
		// Tear the epoch down at every region member except the kill
		// victim (it retired in die) and the crashed node
		// (black-holed; its state is discarded anyway). Region members
		// killed by epochs that completed after es was issued are
		// skipped too — nobody is listening there.
		x := es.victim
		members := make([]int, 0, len(es.region))
		nw.mu.Lock()
		for u := range es.region {
			if u == x || u == v || nw.dead[u] || nw.exited[u] {
				continue
			}
			members = append(members, u)
		}
		nw.mu.Unlock()
		sort.Ints(members)
		pi.stageSend(es, func() {
			for _, u := range members {
				nw.send(u, message{kind: msgEpochAbort, from: srcSupervisor, epoch: es.id, victim: x})
			}
		})
	}

	if len(r.deps) == 0 {
		pi.launch(r)
	}
}

// abortFinish retires an aborted kill epoch once its traffic (including
// the abort orders and their retraction gossip) has drained. The
// epoch's handle stays open — the recovery epoch adopted it — and the
// victim stays doomed (pendingVictim now points at the recovery).
func (pi *pipeline) abortFinish(es *epochState) {
	es.completed = true
	delete(pi.epochs, es.id)
	pi.nw.track.release(es.id)
	for i, id := range pi.order {
		if id == es.id {
			pi.order = append(pi.order[:i], pi.order[i+1:]...)
			break
		}
	}
	// Discard the torn heal's recorded attach orders (undone node-side;
	// they must never reach the mirror) and any stray flood-depth
	// records (there can be none: the epoch never flooded).
	pi.takeAttach(es.id)
	pi.nw.mu.Lock()
	delete(pi.nw.epochHops, es.id)
	pi.nw.mu.Unlock()
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
