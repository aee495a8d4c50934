package dist

// FaultSim is Sim with a deterministic hostile wire: the model checker's
// window into the fault machinery. Where Sim's only nondeterminism is
// which mailbox channel delivers next, FaultSim also lets the enumerator
// choose — per directed node→node channel — whether the oldest in-flight
// frame is delivered, dropped, or duplicated, when an undelivered frame
// is retransmitted, and when an eligible node fail-stops. Every choice
// is an explicit event, so exhaustive enumeration over small budgets
// covers every interleaving of faults with protocol steps, not just the
// ones a seeded random schedule happens to hit.
//
// The wire model is the chaos transport's reliable channel (relChan)
// with time abstracted away: per-channel sequence numbers, the same
// receiver-side dedup and resequencing against a cumulative cursor
// (relChan.accept), sender-side retransmission of unacked frames.
// FaultSim adds only the frames in transit and their copy counts.
// Acknowledgement is folded into delivery (the cursor advance releases
// the sender's copy through relChan.release); a lost ack
// followed by a retransmission is observationally a duplicate frame,
// which the Dup event covers directly. Supervisor traffic is
// out-of-band, exactly as on the chaos transport.
//
// Fault budgets keep the state space finite: Drop and Dup each consume
// a budget unit, and Retransmit is enabled only for a frame with no
// copy left on the wire — so a drop enables exactly one retransmission,
// and the drop budget bounds the total retransmission count. A
// schedule can therefore only terminate with every counted message
// handled: a dropped frame keeps its channel's Retransmit event
// enabled, which keeps the schedule non-terminal until the frame gets
// through. Crash events consume a crash budget and are enabled only
// when the supervisor would actually grant the crash (Network.crashable),
// so every enumerated crash is a real one.

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// FaultOp discriminates FaultEvent.
type FaultOp uint8

const (
	// FaultHandle delivers the channel's oldest mailbox message to the
	// receiver's handler (Sim.Apply).
	FaultHandle FaultOp = iota
	// FaultWire moves the channel's oldest wire frame into the
	// receiver's reliable-channel endpoint (dedup/resequence/ack) and
	// pushes any newly in-order messages into the mailbox.
	FaultWire
	// FaultDrop discards the channel's oldest wire frame (budgeted).
	// The sender still holds it; Retransmit puts it back on the wire.
	FaultDrop
	// FaultDup appends a copy of the channel's oldest wire frame at the
	// wire's tail (budgeted) — it will arrive again, out of order.
	FaultDup
	// FaultRetransmit puts the channel's lowest unacked frame with no
	// wire copy back on the wire.
	FaultRetransmit
	// FaultCrash fail-stops the target node (budgeted; enabled only
	// when the supervisor would grant it). From is unused.
	FaultCrash
)

func (op FaultOp) String() string {
	switch op {
	case FaultHandle:
		return "handle"
	case FaultWire:
		return "wire"
	case FaultDrop:
		return "drop"
	case FaultDup:
		return "dup"
	case FaultRetransmit:
		return "rexmit"
	case FaultCrash:
		return "crash"
	}
	return "unknown"
}

// FaultEvent is one schedulable step: a protocol delivery, a wire
// action on the (To, From) channel, or a crash of To.
type FaultEvent struct {
	Op       FaultOp
	To, From int
}

func (ev FaultEvent) String() string {
	if ev.Op == FaultCrash {
		return fmt.Sprintf("crash(%d)", ev.To)
	}
	return fmt.Sprintf("%s:%d<-%d", ev.Op, ev.To, ev.From)
}

// FaultOpts configures the hostile wire.
type FaultOpts struct {
	// DropBudget and DupBudget bound how many frames the whole
	// schedule may drop / duplicate.
	DropBudget int
	DupBudget  int
	// CrashBudget bounds how many nodes may fail-stop; CrashTargets
	// lists the nodes crash events may name (nil: no crash events).
	CrashBudget  int
	CrashTargets []int
}

// wireFrame is one copy of a frame in transit.
type wireFrame struct {
	seq uint64
	msg message
}

// wireChan is one directed channel's wire state: the reliable channel
// (the sender's unacked frames and the receiver's resequencing
// endpoint) plus the frames in transit, in arrival order. Its relChan
// locks are never taken: FaultSim runs on one goroutine.
type wireChan struct {
	relChan
	frames []wireFrame
	copies map[uint64]int // wire copies per unacked seq
}

// FaultSim drives an unstarted network deterministically through both
// protocol and fault nondeterminism.
type FaultSim struct {
	sim  *Sim
	opts FaultOpts

	chans map[chKey]*wireChan

	dropLeft, dupLeft, crashLeft int
}

// faultWire routes node→node traffic onto the FaultSim's wire;
// supervisor traffic goes straight to the mailbox. Everything runs on
// the calling goroutine — no locks needed, matching Sim's model.
type faultWire struct {
	fs *FaultSim
	nw *Network
}

func (fw faultWire) deliver(to int, msg message) {
	if outOfBand(msg) {
		fw.nw.node(to).post(msg)
		return
	}
	ch := fw.fs.channel(msg.from, to)
	ch.nextSeq++
	ch.frames = append(ch.frames, wireFrame{seq: ch.nextSeq, msg: msg})
	ch.unacked[ch.nextSeq] = &frameState{msg: msg, seq: ch.nextSeq}
	ch.copies[ch.nextSeq]++
}

// NewFaultSim builds a simulated network over g with the hostile wire
// interposed (the worker pool is not started).
func NewFaultSim(g *graph.Graph, ids []uint64, kind HealerKind, opts FaultOpts) *FaultSim {
	fs := &FaultSim{
		sim:       NewSim(g, ids, kind),
		opts:      opts,
		chans:     make(map[chKey]*wireChan),
		dropLeft:  opts.DropBudget,
		dupLeft:   opts.DupBudget,
		crashLeft: opts.CrashBudget,
	}
	fs.sim.nw.transport = faultWire{fs: fs, nw: fs.sim.nw}
	return fs
}

// Network exposes the underlying network.
func (fs *FaultSim) Network() *Network { return fs.sim.nw }

func (fs *FaultSim) channel(from, to int) *wireChan {
	k := chKey{from, to}
	ch := fs.chans[k]
	if ch == nil {
		ch = &wireChan{
			relChan: relChan{unacked: make(map[uint64]*frameState), held: make(map[uint64]message)},
			copies:  make(map[uint64]int),
		}
		fs.chans[k] = ch
	}
	return ch
}

// sortedChanKeys returns the channel keys in (to, from) order, matching
// Sim.Enabled's receiver-major ordering.
func (fs *FaultSim) sortedChanKeys() []chKey {
	ks := make([]chKey, 0, len(fs.chans))
	for k := range fs.chans {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].to != ks[j].to {
			return ks[i].to < ks[j].to
		}
		return ks[i].from < ks[j].from
	})
	return ks
}

// Enabled returns every schedulable event in a deterministic order:
// mailbox deliveries first (as Sim orders them), then per-channel wire
// events, then crashes.
func (fs *FaultSim) Enabled() []FaultEvent {
	var evs []FaultEvent
	for _, ev := range fs.sim.Enabled() {
		evs = append(evs, FaultEvent{Op: FaultHandle, To: ev.To, From: ev.From})
	}
	for _, k := range fs.sortedChanKeys() {
		ch := fs.chans[k]
		if len(ch.frames) > 0 {
			evs = append(evs, FaultEvent{Op: FaultWire, To: k.to, From: k.from})
			if fs.dropLeft > 0 {
				evs = append(evs, FaultEvent{Op: FaultDrop, To: k.to, From: k.from})
			}
			if fs.dupLeft > 0 {
				evs = append(evs, FaultEvent{Op: FaultDup, To: k.to, From: k.from})
			}
		}
		if fs.retransmitSeq(ch) != 0 {
			evs = append(evs, FaultEvent{Op: FaultRetransmit, To: k.to, From: k.from})
		}
	}
	// Crash events only while something else is schedulable: the chaos
	// transport fires crash points at frame deliveries, so a drained
	// network crashes nobody. This is also what lets every config reach
	// a no-crash terminal (the fault that never happens is always one of
	// the enumerated outcomes).
	if len(evs) > 0 && fs.crashLeft > 0 {
		for _, v := range fs.opts.CrashTargets {
			if fs.sim.nw.crashable(v) {
				evs = append(evs, FaultEvent{Op: FaultCrash, To: v})
			}
		}
	}
	return evs
}

// retransmitSeq returns the lowest unacked seq with no copy on the
// wire, or 0 when every unacked frame still has one in transit.
func (fs *FaultSim) retransmitSeq(ch *wireChan) uint64 {
	var best uint64
	for seq := range ch.unacked {
		if ch.copies[seq] == 0 && (best == 0 || seq < best) {
			best = seq
		}
	}
	return best
}

// Apply executes one event. It panics when the event is not currently
// enabled (empty channel, exhausted budget, ineligible crash).
func (fs *FaultSim) Apply(ev FaultEvent) {
	switch ev.Op {
	case FaultHandle:
		fs.sim.Apply(SimEvent{To: ev.To, From: ev.From})
	case FaultWire:
		fs.wireDeliver(ev.To, ev.From)
	case FaultDrop:
		if fs.dropLeft <= 0 {
			panic("dist: faultsim drop budget exhausted")
		}
		fs.dropLeft--
		ch := fs.channel(ev.From, ev.To)
		fr := fs.popFrame(ch, ev)
		if _, live := ch.unacked[fr.seq]; live {
			ch.copies[fr.seq]--
		}
	case FaultDup:
		if fs.dupLeft <= 0 {
			panic("dist: faultsim dup budget exhausted")
		}
		fs.dupLeft--
		ch := fs.channel(ev.From, ev.To)
		if len(ch.frames) == 0 {
			panic(fmt.Sprintf("dist: faultsim dup on empty channel %v", ev))
		}
		fr := ch.frames[0]
		ch.frames = append(ch.frames, fr)
		if _, live := ch.unacked[fr.seq]; live {
			ch.copies[fr.seq]++
		}
	case FaultRetransmit:
		ch := fs.channel(ev.From, ev.To)
		seq := fs.retransmitSeq(ch)
		if seq == 0 {
			panic(fmt.Sprintf("dist: faultsim retransmit with nothing due on %v", ev))
		}
		ch.frames = append(ch.frames, wireFrame{seq: seq, msg: ch.unacked[seq].msg})
		ch.copies[seq]++
	case FaultCrash:
		if fs.crashLeft <= 0 {
			panic("dist: faultsim crash budget exhausted")
		}
		if !fs.sim.nw.tryCrash(ev.To) {
			panic(fmt.Sprintf("dist: faultsim crash(%d) not currently eligible", ev.To))
		}
		fs.crashLeft--
	}
}

func (fs *FaultSim) popFrame(ch *wireChan, ev FaultEvent) wireFrame {
	if len(ch.frames) == 0 {
		panic(fmt.Sprintf("dist: faultsim wire event on empty channel %v", ev))
	}
	fr := ch.frames[0]
	ch.frames[0] = wireFrame{}
	ch.frames = ch.frames[1:]
	if len(ch.frames) == 0 {
		ch.frames = nil
	}
	return fr
}

// wireDeliver moves one frame off the wire into the channel's
// endpoint (relChan.accept, then release of the sender's acked copies)
// and hands the newly in-order messages onward. The head in-order
// message is handled directly when per-sender FIFO allows (nothing from
// this sender still queued in the mailbox): a frame sitting on the wire
// and a message sitting unhandled in the mailbox are bisimilar —
// nothing in the protocol can observe the difference before the
// handler runs — so collapsing arrival and handling into one event
// prunes an exponential factor of interleavings without losing any
// reachable terminal state. A gap-fill suffix beyond the head goes
// through the mailbox as usual, keeping other nodes' handlers free to
// interleave between them.
func (fs *FaultSim) wireDeliver(to, from int) {
	ch := fs.channel(from, to)
	fr := fs.popFrame(ch, FaultEvent{Op: FaultWire, To: to, From: from})
	if _, live := ch.unacked[fr.seq]; live {
		ch.copies[fr.seq]--
	}
	out := ch.accept(fr.seq, fr.msg)
	ch.release()
	for seq := range ch.copies {
		if seq <= ch.expect {
			delete(ch.copies, seq)
		}
	}
	if len(out) > 0 && !fs.mailboxHasSender(to, from) && !fs.sim.gone[to] {
		fs.handleNow(to, out[0])
		out = out[1:]
	}
	nd := fs.sim.nw.node(to)
	for _, m := range out {
		nd.post(m)
	}
}

// mailboxHasSender reports whether to's mailbox holds an unhandled
// message from the given sender (direct handling would violate FIFO).
func (fs *FaultSim) mailboxHasSender(to, from int) bool {
	for _, m := range fs.sim.nw.node(to).inbox.peekAll() {
		if m.from == from {
			return true
		}
	}
	return false
}

// handleNow runs the receiver's handler inline and ticks the tracker,
// exactly as Sim.Apply does for a mailbox message.
func (fs *FaultSim) handleNow(to int, msg message) {
	if fs.sim.nw.node(to).handle(msg) {
		fs.sim.gone[to] = true
	}
	fs.sim.nw.track.done(msg.epoch)
}

// Quiet reports whether nothing is in flight anywhere — mailboxes,
// wire, and retransmission queues all empty.
func (fs *FaultSim) Quiet() bool {
	if !fs.sim.Quiet() {
		return false
	}
	for _, ch := range fs.chans {
		if len(ch.frames) > 0 || len(ch.unacked) > 0 {
			return false
		}
	}
	return true
}

// Fingerprint hashes the network state plus the wire state and
// remaining fault budgets.
func (fs *FaultSim) Fingerprint() [16]byte {
	e := &fs.sim.enc
	e.reset()
	fs.sim.encodeState(e)
	fs.encodeWireState(e)
	return e.sum()
}

// encodeWireState serializes the wire relative to each channel's
// delivery cursor: sequence numbers enter the hash as offsets from
// expect, and fully drained channels are skipped entirely. Absolute
// sequence values are per-channel send counts — pure accounting, like
// the traffic counters Sim's fingerprint deliberately excludes — and
// hashing them would keep behaviorally identical states apart.
func (fs *FaultSim) encodeWireState(e *stateEnc) {
	e.int(fs.dropLeft)
	e.int(fs.dupLeft)
	e.int(fs.crashLeft)
	for _, k := range fs.sortedChanKeys() {
		ch := fs.chans[k]
		if len(ch.frames) == 0 && len(ch.unacked) == 0 && len(ch.held) == 0 {
			continue
		}
		e.bool(true) // one more channel
		e.int(k.to)
		e.int(k.from)
		e.int(len(ch.frames))
		for _, fr := range ch.frames {
			e.u64(fr.seq - ch.expect)
			e.message(fr.msg)
		}
		e.int(len(ch.unacked))
		for _, seq := range sortedKeysU64(ch.unacked) {
			e.u64(seq - ch.expect)
			e.int(ch.copies[seq])
			e.message(ch.unacked[seq].msg)
		}
		e.int(len(ch.held))
		for _, seq := range sortedKeysU64(ch.held) {
			e.u64(seq - ch.expect)
			e.message(ch.held[seq])
		}
	}
	e.bool(false) // no more channels
}
