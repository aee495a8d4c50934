package dist

// Sim is the deterministic single-threaded harness behind the model
// checker (internal/dist/modelcheck): the same Network, nodes, message
// handlers, and epoch pipeline as the concurrent runtime — assemble()d
// without the worker pool — with the test in control of which queued
// message is delivered next.
//
// The unit of scheduling is a channel (receiver, sender): the transport
// guarantees per-sender FIFO into each mailbox, so the only freedom a
// real execution has is how the channels interleave at each receiver.
// Enabled() lists every non-empty channel; Apply() hands the
// channel's oldest message to the receiver's handler on the calling
// goroutine, then ticks the quiescence tracker — which pumps the epoch
// pipeline inline, so supervisor stage transitions happen synchronously
// and deterministically. Every schedule the enumerator produces this
// way is one the concurrent scheduler could legally produce, and
// together they are all of them.
//
// Fingerprint() hashes the complete behavior-relevant state — node
// protocol state, per-channel mailbox contents, tracker counters, and
// the pipeline's scheduling state — so an enumerator can prune
// schedules that reach a state it has already explored. Two delivery
// prefixes that commute reach the identical state and collapse into
// one subtree, which is what makes exhaustive enumeration of small
// configurations tractable (a partial-order reduction keyed on state
// identity rather than on a static independence relation). Traffic
// counters (per-node and per-kind totals) are deliberately excluded:
// they never feed back into protocol behavior, and excluding them
// merges schedules that differ only in accounting.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"repro/internal/graph"
)

// Sim drives an unstarted network deterministically.
type Sim struct {
	nw *Network
	// gone marks nodes whose handler returned true — in the concurrent
	// runtime the actor has retired, so messages queued at them can
	// never be consumed. Enabled stops scheduling their mailboxes;
	// anything still queued there is a wedge the terminal check reports,
	// exactly as a Drain timeout would in the concurrent runtime.
	gone map[int]bool

	enc stateEnc // Fingerprint's reused serialization buffer
}

// SimEvent names one deliverable event: the oldest undelivered message
// on the (To, From) channel. From is srcSupervisor for supervisor
// traffic.
type SimEvent struct {
	To, From int
}

func (ev SimEvent) String() string {
	return fmt.Sprintf("%d<-%d", ev.To, ev.From)
}

// NewSim builds a simulated network over g (the worker pool is not
// started).
func NewSim(g *graph.Graph, ids []uint64, kind HealerKind) *Sim {
	return &Sim{nw: assemble(g, ids, kind), gone: make(map[int]bool)}
}

// Network exposes the underlying network (snapshots, flood stats, and
// the async operation API all live there).
func (s *Sim) Network() *Network { return s.nw }

// Enabled returns every deliverable event, sorted by (To, From). The
// order is deterministic across replays of the same delivery prefix,
// which is what lets an enumerator identify a branch by its index.
func (s *Sim) Enabled() []SimEvent {
	var evs []SimEvent
	for to, nd := range s.nw.nodeSlice() {
		if nd == nil || s.gone[to] {
			continue
		}
		seen := make(map[int]struct{})
		for _, m := range nd.inbox.peekAll() {
			if _, dup := seen[m.from]; !dup {
				seen[m.from] = struct{}{}
				evs = append(evs, SimEvent{To: to, From: m.from})
			}
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].To != evs[j].To {
			return evs[i].To < evs[j].To
		}
		return evs[i].From < evs[j].From
	})
	return evs
}

// Apply handles the oldest queued message on ev's channel, then ticks
// the tracker — running any resulting epoch-pipeline transitions (stage
// advances, newly unblocked epoch launches) synchronously before
// returning. It panics when the channel is empty. The name matches
// FaultSim.Apply, so the model checker drives both through one method
// set.
func (s *Sim) Apply(ev SimEvent) {
	nd := s.nw.node(ev.To)
	idx := -1
	for i, m := range nd.inbox.peekAll() {
		if m.from == ev.From {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("dist: no queued message on channel %v", ev))
	}
	msg := nd.inbox.takeAt(idx)
	if nd.handle(msg) {
		s.gone[ev.To] = true
	}
	s.nw.track.done(msg.epoch)
}

// Quiet reports whether no message is in flight anywhere.
func (s *Sim) Quiet() bool { return s.nw.track.pending() == 0 }

// Fingerprint hashes the complete behavior-relevant state into 16
// bytes (FNV-128a over a canonical binary serialization).
func (s *Sim) Fingerprint() [16]byte {
	s.enc.reset()
	s.encodeState(&s.enc)
	return s.enc.sum()
}

// ---- canonical serialization ----

// stateEnc accumulates a canonical binary serialization of simulator
// state for Fingerprint: every integer as 8 little-endian bytes, every
// map in sorted key order (a node's neighbor lists and NoN tables are
// kept sorted, so they are written as they are), and every
// variable-length part (list, map, string) preceded by its length, with
// a presence byte wherever nil and empty differ to the protocol. Two
// different states therefore never serialize to the same bytes. The
// buffer is reused across calls.
type stateEnc struct {
	b []byte
}

func (e *stateEnc) reset() { e.b = e.b[:0] }

// sum hashes the accumulated bytes with FNV-128a.
func (e *stateEnc) sum() [16]byte {
	h := fnv.New128a()
	h.Write(e.b)
	var fp [16]byte
	h.Sum(fp[:0])
	return fp
}

func (e *stateEnc) u64(x uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, x) }
func (e *stateEnc) int(x int)    { e.u64(uint64(x)) }

func (e *stateEnc) bool(x bool) {
	if x {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *stateEnc) str(x string) {
	e.int(len(x))
	e.b = append(e.b, x...)
}

func (e *stateEnc) ints(xs []int) {
	e.int(len(xs))
	for _, x := range xs {
		e.int(x)
	}
}

func (e *stateEnc) u64s(xs []uint64) {
	e.int(len(xs))
	for _, x := range xs {
		e.u64(x)
	}
}

// keys writes m's keys in ascending order (a set).
func keys[V any](e *stateEnc, m map[int]V) { e.ints(sortedKeys(m)) }

// table writes t's (node, initial ID) rows in its (ascending) order.
func (e *stateEnc) table(t nonTable) {
	e.int(len(t))
	for _, r := range t {
		e.int(r.v)
		e.u64(r.id)
	}
}

// optTable writes a presence byte, then t when it is non-nil.
func (e *stateEnc) optTable(t nonTable) {
	e.bool(t != nil)
	if t != nil {
		e.table(t)
	}
}

func (e *stateEnc) report(r healReport) {
	e.int(r.from)
	e.u64(r.initID)
	e.u64(r.curID)
	e.int(r.delta)
	e.bool(r.wasGpNbr)
}

func (e *stateEnc) message(m message) {
	e.b = append(e.b, byte(m.kind))
	e.int(m.from)
	e.u64(m.epoch)
	e.int(m.victim)
	e.int(m.peer)
	e.u64(m.peerInitID)
	e.u64(m.peerCurID)
	e.int(m.leader)
	e.u64(m.label)
	e.int(m.hops)
	e.report(m.report)
	e.optTable(m.nonNbrs)
}

// graph writes g's slot count, then per slot whether it is alive and,
// if so, its neighbors above it (each edge once).
func (e *stateEnc) graph(g *graph.Graph) {
	e.int(g.N())
	var nbrs []int
	for v := 0; v < g.N(); v++ {
		e.bool(g.Alive(v))
		if !g.Alive(v) {
			continue
		}
		nbrs = g.AppendNeighbors(nbrs[:0], v)
		slices.Sort(nbrs)
		i, _ := slices.BinarySearch(nbrs, v+1)
		e.ints(nbrs[i:])
	}
}

func sortedKeys[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

func sortedKeysU64[V any](m map[uint64]V) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

func (nd *node) encodeState(e *stateEnc) {
	e.int(nd.id)
	e.u64(nd.initID)
	e.u64(nd.curID)
	e.int(nd.initDeg)
	e.int(nd.floodRound)
	e.int(nd.floodHops)
	e.bool(nd.zombie)
	e.bool(nd.crashed.Load())
	e.u64s(sortedKeysU64(nd.abortedEpochs))
	e.int(len(nd.roundWires))
	for _, victim := range sortedKeys(nd.roundWires) {
		e.int(victim)
		e.int(len(nd.roundWires[victim]))
		for _, rec := range nd.roundWires[victim] {
			e.int(rec.peer)
			e.bool(rec.addedG)
			e.bool(rec.addedGp)
		}
	}
	e.int(len(nd.gNbrs))
	for _, info := range nd.gNbrs {
		e.int(info.v)
		e.u64(info.initID)
		e.u64(info.curID)
		e.optTable(info.nbrs)
	}
	e.ints(nd.gpNbrs)
	e.int(len(nd.pendingHello))
	for _, h := range nd.pendingHello {
		e.int(h.from)
		e.table(h.nbrs)
	}
	e.int(len(nd.heals))
	for _, victim := range sortedKeys(nd.heals) {
		hs := nd.heals[victim]
		e.int(victim)
		e.u64(hs.victimCurID)
		e.int(hs.acksLeft)
		e.bool(hs.wired)
		e.optTable(hs.expect)
		e.int(len(hs.reports))
		for _, from := range sortedKeys(hs.reports) {
			e.report(hs.reports[from])
		}
		e.int(len(hs.rt))
		for _, r := range hs.rt {
			e.report(r)
		}
		e.optTable(hs.reps)
	}
	// Mailbox as channels: per sender in FIFO order. The cross-sender
	// arrival order in the backing queue is scheduling noise (it depends
	// on which senders ran first), so it must not enter the hash.
	bySender := make(map[int][]message)
	for _, m := range nd.inbox.peekAll() {
		bySender[m.from] = append(bySender[m.from], m)
	}
	e.int(len(bySender))
	for _, from := range sortedKeys(bySender) {
		e.int(from)
		e.int(len(bySender[from]))
		for _, m := range bySender[from] {
			e.message(m)
		}
	}
}

func (pi *pipeline) encodeState(e *stateEnc) {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	e.u64(pi.nextEpoch)
	e.bool(pi.serial)
	e.bool(pi.recovering)
	e.u64s(pi.order)
	e.int(len(pi.pendingVictim))
	for _, v := range sortedKeys(pi.pendingVictim) {
		e.int(v)
		e.u64(pi.pendingVictim[v])
	}
	keys(e, pi.crashed)
	e.int(len(pi.effLog))
	for _, ent := range pi.effLog {
		op := ent.op
		e.u64(ent.epoch)
		e.b = append(e.b, byte(op.Kind))
		e.int(op.Victim)
		e.ints(op.Batch)
		e.int(op.NewID)
		e.ints(op.Attach)
		e.u64(op.InitID)
	}
	e.int(len(pi.epochs))
	for _, id := range sortedKeysU64(pi.epochs) {
		es := pi.epochs[id]
		e.u64(id)
		e.b = append(e.b, byte(es.kind))
		e.str(es.stage)
		e.bool(es.launched)
		e.bool(es.completed)
		e.bool(es.aborted)
		e.bool(es.floodStarted)
		e.int(es.victim)
		e.int(es.newID)
		e.ints(es.attach)
		e.ints(es.batch)
		e.int(es.root)
		e.int(es.leader)
		e.bool(es.universal)
		keys(e, es.region)
		e.u64s(sortedKeysU64(es.deps))
		e.int(es.clustersLeft)
	}
	e.graph(pi.mirG)
	e.graph(pi.mirGp)
	pi.attachMu.Lock()
	e.int(len(pi.attachRec))
	for _, ep := range sortedKeysU64(pi.attachRec) {
		e.u64(ep)
		e.int(len(pi.attachRec[ep]))
		for _, edge := range pi.attachRec[ep] {
			e.int(edge[0])
			e.int(edge[1])
		}
	}
	pi.attachMu.Unlock()
}

func (s *Sim) encodeState(e *stateEnc) {
	nw := s.nw
	nw.mu.Lock()
	e.int(nw.n)
	e.int(nw.rounds)
	e.u64(uint64(nw.floodSum))
	e.int(nw.floodMax)
	e.int(len(nw.dead))
	for _, d := range nw.dead {
		e.bool(d)
	}
	keys(e, s.gone)
	e.int(len(nw.epochHops))
	for _, ep := range sortedKeysU64(nw.epochHops) {
		hops := nw.epochHops[ep]
		e.u64(ep)
		e.int(len(hops))
		for _, v := range sortedKeys(hops) {
			e.int(v)
			e.int(hops[v])
		}
	}
	nw.mu.Unlock()

	loads := nw.track.epochLoads()
	e.int(len(loads))
	for _, l := range loads {
		e.u64(l.epoch)
		e.u64(uint64(l.count))
	}

	nw.pipe.encodeState(e)
	for _, nd := range nw.nodeSlice() {
		e.bool(nd != nil)
		if nd != nil {
			nd.encodeState(e)
		}
	}
}
