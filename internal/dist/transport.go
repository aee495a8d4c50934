package dist

// The transport seam. Network.send counts a message in flight and then
// hands it to the network's Transport, which owns delivery. The default
// directTransport keeps the original semantics — an immediate push into
// the recipient's mailbox, reliable and per-sender FIFO. chaosTransport
// interposes a hostile network between send and mailbox: frames drop,
// duplicate, arrive late and out of order, and nodes fail-stop at named
// protocol steps, all per a deterministic chaos.Plan.
//
// The hardening lives entirely below the mailbox: every node→node
// channel carries per-sender sequence numbers, the receiver side dedups
// and resequences (holding early frames until the gap fills), and the
// sender side retransmits unacked frames on a capped exponential
// backoff. The mailbox therefore still sees every message exactly once,
// in per-sender order — the two properties the protocol handlers (and
// the per-epoch conservation counters) were built on — so no handler
// changes and no counter changes are needed for drop/dup/delay faults.
// Frames, acks, duplicates and retransmissions are transport artifacts
// below the counting line: the tracker counts one send and one handled
// delivery per message, exactly as on the direct transport.
//
// Supervisor traffic (msg.from == srcSupervisor, plus msgJoinReq, which
// the supervisor physically sends on the newcomer's behalf) bypasses the
// fault machinery entirely. The supervisor is the model's failure
// detector, not a network participant — and several supervisor sends
// happen while the epoch scheduler's lock is held, so routing them
// through the crash-triggering path would deadlock the scheduler
// against itself.
//
// Crashes: a chaos.CrashPoint fires when the Nth frame of the named
// kind is delivered to its target (wildcard targets match any
// receiver). The transport then asks the supervisor to crash the
// receiver (Network.tryCrash, recovery.go); if the crash is unsafe at
// that moment — the node is mid-join, mid-batch, or a recovery is
// already in flight — the point re-arms and fires at the next matching
// delivery instead. A crashed node keeps consuming its mailbox as a
// black hole (so conservation counters still drain) until recovery
// stops it.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist/chaos"
)

// Transport delivers one message toward a node's mailbox. It is sealed
// (the message type is package-private); the implementations are the
// default direct transport, the chaos transport (NewChaos), and the
// deterministic wire used by FaultSim.
type Transport interface {
	deliver(to int, msg message)
}

// transportCloser is implemented by transports with background work to
// stop; Network.Close invokes it after the worker pool has stopped.
type transportCloser interface {
	closeTransport()
}

// directTransport is the reliable default: an immediate mailbox push.
type directTransport struct {
	nw *Network
}

func (d directTransport) deliver(to int, msg message) {
	d.nw.node(to).post(msg)
}

// outOfBand reports whether a message bypasses the fault machinery:
// supervisor-originated traffic, plus the join hello the supervisor
// sends on a newcomer's behalf (its from field is the newcomer's index,
// but no node handler ever sends it).
func outOfBand(msg message) bool {
	return msg.from == srcSupervisor || msg.kind == msgJoinReq
}

// supervisorOnlyKind reports whether a message kind only ever travels
// out-of-band. Crash points must name node-originated kinds: the fault
// model covers the network between nodes, not the failure detector.
func supervisorOnlyKind(k msgKind) bool {
	switch k {
	case msgDie, msgStop, msgSnapshot, msgJoinReq,
		msgBatchDie, msgBatchHealStart, msgEpochAbort, msgCrashNotice:
		return true
	}
	return false
}

// resolveCrashKinds maps a plan's crash-point kind names to message
// kinds, rejecting unknown names and supervisor-only kinds.
func resolveCrashKinds(plan *chaos.Plan) ([]msgKind, error) {
	byName := make(map[string]msgKind, msgKindCount)
	for k := msgKind(0); k < msgKindCount; k++ {
		byName[k.String()] = k
	}
	kinds := make([]msgKind, len(plan.Crashes))
	for i, cp := range plan.Crashes {
		k, ok := byName[cp.Kind]
		if !ok {
			return nil, fmt.Errorf("dist: crash point %v: unknown message kind %q", cp, cp.Kind)
		}
		if supervisorOnlyKind(k) {
			return nil, fmt.Errorf("dist: crash point %v: %q is supervisor traffic, outside the fault model", cp, cp.Kind)
		}
		kinds[i] = k
	}
	return kinds, nil
}

// chKey names one directed node→node channel.
type chKey struct{ from, to int }

// frameState is the sender-side record of one unacked frame.
type frameState struct {
	msg      message
	seq      uint64
	attempts int
	lastTx   time.Time
	acked    bool
}

// relChan is the reliable-delivery state of one directed channel:
// sender-side sequence numbering and retransmission queue, receiver-side
// cumulative-delivery cursor and resequencing buffer. The chaos
// transport and FaultSim's deterministic wire share it, and with it the
// receive path (accept, release).
type relChan struct {
	// deliverMu serializes arrive() end to end: advancing the delivery
	// cursor and pushing the resulting in-order suffix into the mailbox
	// must be one atomic step. If they were split (cursor under mu, push
	// after), a concurrent arrival on the same channel — a retransmitted
	// seq n+1 racing a delayed duplicate of seq n — could advance the
	// cursor and push its suffix first, breaking per-sender FIFO.
	// Acquired before mu, and only by arrive; everything reached under it
	// (mailbox pushes, the crash machinery) is non-blocking and never
	// re-enters arrive, so no lock cycle is possible.
	deliverMu sync.Mutex

	mu      sync.Mutex
	nextSeq uint64
	unacked map[uint64]*frameState
	expect  uint64 // highest contiguously delivered seq
	held    map[uint64]message
}

// ChaosStats counts the faults a chaos transport actually injected.
type ChaosStats struct {
	Drops       int64
	Dups        int64
	Delays      int64
	Retransmits int64
	Crashes     int
}

// chaosTransport interprets a chaos.Plan over reliable channels.
type chaosTransport struct {
	nw   *Network
	plan *chaos.Plan
	stop chan struct{}
	wg   sync.WaitGroup

	mu    sync.Mutex
	chans map[chKey]*relChan

	// timerMu guards the set of in-flight delay/dup timers so
	// closeTransport can stop them; closed makes any timer that already
	// fired (and any late after call) a no-op, so no arrive can run
	// against a network being torn down.
	timerMu sync.Mutex
	timers  map[*time.Timer]struct{}
	closed  bool

	// arms holds each crash point's remaining matching-delivery count;
	// 0 means fired and disarmed. kinds is the resolved kind per point.
	armMu sync.Mutex
	arms  []int
	kinds []msgKind

	drops   atomic.Int64
	dups    atomic.Int64
	delays  atomic.Int64
	retrans atomic.Int64

	// onEnqueue, when set (tests only), runs in deliver after frame seq
	// became visible in ch.unacked and before its first transmission —
	// the window a retransmit scan can race into.
	onEnqueue func(ch *relChan, seq uint64)
}

func newChaosTransport(nw *Network, plan *chaos.Plan) (*chaosTransport, error) {
	kinds, err := resolveCrashKinds(plan)
	if err != nil {
		return nil, err
	}
	ct := &chaosTransport{
		nw:     nw,
		plan:   plan,
		stop:   make(chan struct{}),
		chans:  make(map[chKey]*relChan),
		timers: make(map[*time.Timer]struct{}),
		arms:   make([]int, len(plan.Crashes)),
		kinds:  kinds,
	}
	for i, cp := range plan.Crashes {
		ct.arms[i] = cp.Nth
	}
	ct.wg.Add(1)
	go ct.retransmitLoop()
	return ct, nil
}

func (ct *chaosTransport) channel(from, to int) *relChan {
	k := chKey{from, to}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ch := ct.chans[k]
	if ch == nil {
		ch = &relChan{unacked: make(map[uint64]*frameState), held: make(map[uint64]message)}
		ct.chans[k] = ch
	}
	return ch
}

func (ct *chaosTransport) deliver(to int, msg message) {
	if outOfBand(msg) {
		ct.nw.node(to).post(msg)
		return
	}
	ch := ct.channel(msg.from, to)
	ch.mu.Lock()
	ch.nextSeq++
	// The first attempt is claimed in the same critical section that
	// publishes the frame: a retransmit scan must never see a frame with
	// no attempt on record, whose backoff shift would be negative and
	// whose zero lastTx would look overdue.
	seq := ch.nextSeq
	ch.unacked[seq] = &frameState{msg: msg, seq: seq, attempts: 1, lastTx: time.Now()}
	ch.mu.Unlock()
	if ct.onEnqueue != nil {
		ct.onEnqueue(ch, seq)
	}
	ct.transmit(ch, msg.from, to, seq, msg, 1)
}

// retransmit claims and performs the next attempt of an unacked frame.
func (ct *chaosTransport) retransmit(ch *relChan, from, to int, fr *frameState) {
	ch.mu.Lock()
	if fr.acked {
		ch.mu.Unlock()
		return
	}
	fr.attempts++
	attempt := fr.attempts
	fr.lastTx = time.Now()
	ch.mu.Unlock()
	ct.retrans.Add(1)
	ct.transmit(ch, from, to, fr.seq, fr.msg, attempt)
}

// transmit performs one transmission attempt of a frame, drawing its
// deterministic fate from the plan. Attempts past the plan's bypass
// threshold ignore the probabilistic faults, which is what bounds how
// long any single frame can be withheld.
func (ct *chaosTransport) transmit(ch *relChan, from, to int, seq uint64, msg message, attempt int) {
	if ct.plan.PartitionDrop(from, to, attempt) {
		ct.drops.Add(1)
		return
	}
	fate := ct.plan.FrameFate(from, to, seq, attempt)
	if fate.Drop {
		ct.drops.Add(1)
		return
	}
	if fate.Dup {
		ct.dups.Add(1)
		lag := fate.Delay + 37*time.Microsecond
		ct.after(lag, func() { ct.arrive(ch, from, to, seq, msg, attempt) })
	}
	if fate.Delay > 0 {
		ct.delays.Add(1)
		ct.after(fate.Delay, func() { ct.arrive(ch, from, to, seq, msg, attempt) })
		return
	}
	ct.arrive(ch, from, to, seq, msg, attempt)
}

// after schedules fn on a tracked timer. closeTransport stops timers
// that have not fired and waits (via wg) for callbacks already running,
// so no delayed or duplicated frame can arrive after the network has
// closed.
func (ct *chaosTransport) after(d time.Duration, fn func()) {
	ct.timerMu.Lock()
	defer ct.timerMu.Unlock()
	if ct.closed {
		return
	}
	ct.wg.Add(1)
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		defer ct.wg.Done()
		// Blocks until the enclosing after() releases timerMu, so t is
		// always assigned here, even for a zero duration.
		ct.timerMu.Lock()
		delete(ct.timers, t)
		dead := ct.closed
		ct.timerMu.Unlock()
		if dead {
			return
		}
		fn()
	})
	ct.timers[t] = struct{}{}
}

// arrive is the receiver side of one frame on the chaos wire: accept it
// into the channel's endpoint, acknowledge cumulatively (the ack is
// itself subject to loss, unless the frame had escalated past the
// bypass threshold — that exception is what lets retransmission always
// terminate), and push the in-order suffix into the mailbox, checking
// each delivery against the crash schedule.
func (ct *chaosTransport) arrive(ch *relChan, from, to int, seq uint64, msg message, attempt int) {
	ch.deliverMu.Lock()
	defer ch.deliverMu.Unlock()
	ch.mu.Lock()
	out := ch.accept(seq, msg)
	if attempt > ct.plan.MaxAttemptsOrDefault() || !ct.plan.AckDrop(from, to, ch.expect) {
		ch.release()
	}
	ch.mu.Unlock()

	for _, m := range out {
		ct.maybeCrash(to, m.kind)
		ct.nw.node(to).post(m)
	}
}

// accept is the receiver side of one frame: dedup against the delivery
// cursor and resequence held frames. It returns the messages the frame
// makes deliverable in per-sender order — the frame itself first, then
// every held frame it unblocks — and nothing for an early frame (held
// until the gap fills) or a duplicate of a delivered one (discarded).
// accept and release take no lock: the chaos transport calls them under
// ch.mu, FaultSim on its single goroutine.
func (ch *relChan) accept(seq uint64, msg message) []message {
	var out []message
	switch {
	case seq == ch.expect+1:
		ch.expect++
		out = append(out, msg)
		for {
			m, ok := ch.held[ch.expect+1]
			if !ok {
				break
			}
			delete(ch.held, ch.expect+1)
			ch.expect++
			out = append(out, m)
		}
	case seq > ch.expect:
		ch.held[seq] = msg
	}
	return out
}

// release is the cumulative acknowledgement: the sender drops every
// unacked frame up to the delivery cursor.
func (ch *relChan) release() {
	for s, fr := range ch.unacked {
		if s <= ch.expect {
			fr.acked = true
			delete(ch.unacked, s)
		}
	}
}

// maybeCrash ticks every armed crash point matching this delivery; a
// point reaching zero asks the supervisor to crash the receiver, and
// re-arms for the next matching delivery when the crash is deferred.
func (ct *chaosTransport) maybeCrash(to int, kind msgKind) {
	if len(ct.arms) == 0 {
		return
	}
	var fire []int
	ct.armMu.Lock()
	for i, cp := range ct.plan.Crashes {
		if ct.arms[i] <= 0 || ct.kinds[i] != kind {
			continue
		}
		if cp.Target != chaos.Wildcard && cp.Target != to {
			continue
		}
		ct.arms[i]--
		if ct.arms[i] == 0 {
			fire = append(fire, i)
		}
	}
	ct.armMu.Unlock()
	for _, i := range fire {
		if !ct.nw.tryCrash(to) {
			ct.armMu.Lock()
			ct.arms[i] = 1
			ct.armMu.Unlock()
		}
	}
}

// retransmitLoop periodically rescans every channel for unacked frames
// whose backoff window has elapsed and transmits them again.
func (ct *chaosTransport) retransmitLoop() {
	defer ct.wg.Done()
	base := ct.plan.RTOOrDefault()
	tick := time.NewTicker(base / 2)
	defer tick.Stop()
	for {
		select {
		case <-ct.stop:
			return
		case <-tick.C:
		}
		ct.mu.Lock()
		keys := make([]chKey, 0, len(ct.chans))
		for k := range ct.chans {
			keys = append(keys, k)
		}
		chans := make([]*relChan, len(keys))
		for i, k := range keys {
			chans[i] = ct.chans[k]
		}
		ct.mu.Unlock()
		now := time.Now()
		for i, ch := range chans {
			for _, fr := range ch.due(base, now) {
				ct.retransmit(ch, keys[i].from, keys[i].to, fr)
			}
		}
	}
}

// due returns the channel's unacked frames whose backoff window has
// elapsed at now, in sequence order. Backoff is exponential in the
// attempt count, capped at chaos.DefaultRTOCap.
func (ch *relChan) due(base time.Duration, now time.Time) []*frameState {
	var out []*frameState
	ch.mu.Lock()
	for _, fr := range ch.unacked {
		shift := fr.attempts - 1
		if shift > 5 {
			shift = 5
		}
		backoff := base << shift
		if backoff > chaos.DefaultRTOCap {
			backoff = chaos.DefaultRTOCap
		}
		if now.Sub(fr.lastTx) >= backoff {
			out = append(out, fr)
		}
	}
	ch.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

func (ct *chaosTransport) closeTransport() {
	close(ct.stop)
	ct.timerMu.Lock()
	ct.closed = true
	for t := range ct.timers {
		if t.Stop() {
			ct.wg.Done()
		}
	}
	ct.timers = nil
	ct.timerMu.Unlock()
	ct.wg.Wait()
}

// stats snapshots the transport's fault counters.
func (ct *chaosTransport) stats() ChaosStats {
	return ChaosStats{
		Drops:       ct.drops.Load(),
		Dups:        ct.dups.Load(),
		Delays:      ct.delays.Load(),
		Retransmits: ct.retrans.Load(),
	}
}
