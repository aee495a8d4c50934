package dist

import (
	"runtime"
	"sync"
)

// The runtime: node actors are plain data (state plus a mailbox), run by
// a fixed pool of runtime.GOMAXPROCS(0) worker goroutines. A node with
// mail sits on one FIFO run queue; a worker takes it, handles up to
// turnBatch messages, and either puts it back at the tail (mail left)
// or lets it go idle (mailbox empty). The mailbox's scheduled flag,
// flipped under the mailbox lock, keeps a node on the queue at most
// once, so at most one worker runs a node at a time. That gives the
// three guarantees the protocol and the quiescence tracker rely on:
//
//   - one handler at a time per node: a node's state is only ever
//     touched by the worker currently running it;
//   - per-sender FIFO: a sender pushes sequentially from its own
//     handler, and the receiver's mailbox is drained in push order;
//   - handle-then-done: track.done runs after the handler returned, so
//     every message the handler sent is already counted.
//
// No handler blocks on another actor (pushes never block; snapshot
// replies go to a channel buffered for every reply), so one worker is
// enough to run any network to quiescence.

// turnBatch bounds how many messages a worker handles for one node per
// turn before re-queueing it, so a node with a deep backlog (a flood
// hub) cannot hold a worker while other nodes wait.
const turnBatch = 64

// mailboxKeepCap is the largest backing array a drained mailbox keeps
// for reuse. A larger one (a hub after a burst) is dropped, so idle
// nodes do not pin their peak backlog.
const mailboxKeepCap = 256

// pool is the worker pool and its run queue: a ring of nodes with mail.
type pool struct {
	mu     sync.Mutex
	wake   sync.Cond // signalled when a node is queued or the pool stops
	ring   []*node
	head   int
	queued int
	idle   int // workers parked in wake.Wait
	closed bool
	wg     sync.WaitGroup
}

// startPool launches runtime.GOMAXPROCS(0) workers.
func startPool() *pool {
	p := &pool{ring: make([]*node, 64)}
	p.wake.L = &p.mu
	workers := runtime.GOMAXPROCS(0)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.work()
	}
	return p
}

// schedule appends nd to the run queue. The caller has just set nd's
// scheduled flag, so nd is not already queued or running.
func (p *pool) schedule(nd *node) {
	p.mu.Lock()
	if p.queued == len(p.ring) {
		grown := make([]*node, 2*len(p.ring))
		n := copy(grown, p.ring[p.head:])
		copy(grown[n:], p.ring[:p.head])
		p.ring, p.head = grown, 0
	}
	p.ring[(p.head+p.queued)%len(p.ring)] = nd
	p.queued++
	if p.idle > 0 {
		p.wake.Signal()
	}
	p.mu.Unlock()
}

// next blocks until a node is queued and dequeues it, or returns nil
// once the pool is stopped.
func (p *pool) next() *node {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.queued == 0 && !p.closed {
		p.idle++
		p.wake.Wait()
		p.idle--
	}
	if p.closed {
		return nil
	}
	nd := p.ring[p.head]
	p.ring[p.head] = nil
	p.head = (p.head + 1) % len(p.ring)
	p.queued--
	return nd
}

func (p *pool) work() {
	defer p.wg.Done()
	for nd := p.next(); nd != nil; nd = p.next() {
		if nd.turn() {
			p.schedule(nd)
		}
	}
}

// stop makes every worker exit after its current turn and waits for
// them. Queued mail is abandoned: the network is unusable afterwards.
func (p *pool) stop() {
	p.mu.Lock()
	p.closed = true
	p.wake.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// turn handles up to turnBatch of nd's messages, acknowledging each to
// the quiescence tracker after its handler returned. It reports whether
// nd still has mail and must be re-queued. An empty mailbox clears the
// scheduled flag (in pop, under the mailbox lock), so the next push
// queues nd again. A handler that retires the node (msgDie, msgStop)
// ends the turn with the flag still set: no later push queues it, and
// anything still sent to it stays unhandled, as the protocol expects of
// a dead node.
func (nd *node) turn() bool {
	for i := 0; i < turnBatch; i++ {
		msg, ok := nd.inbox.pop()
		if !ok {
			return false
		}
		stop := nd.handle(msg)
		nd.nw.track.done(msg.epoch)
		if stop {
			return false
		}
	}
	return true
}

// post delivers msg to nd's mailbox and, on a running network, queues nd
// for a worker if it was idle. Every transport delivers through here.
func (nd *node) post(msg message) {
	if nd.inbox.push(msg) && nd.nw.pool != nil {
		nd.nw.pool.schedule(nd)
	}
}

// mailbox is an unbounded FIFO inbox. Unboundedness is load-bearing:
// node A healing while node B floods can produce cyclic send patterns,
// and with bounded queues two full inboxes sending to each other would
// deadlock. Pushes never block; same-sender ordering is preserved
// because each sender pushes sequentially from its own handler.
//
// The queue is queue[head:]. Popping advances head instead of
// reslicing, and a drained queue rewinds to the start of the same
// backing array, so a node's steady traffic allocates nothing.
type mailbox struct {
	mu    sync.Mutex
	queue []message
	head  int
	// scheduled is set by the push that finds the node idle and cleared
	// by the pop that finds the queue empty: while it is set, the node is
	// on the run queue or being run. A manual network (no pool) has
	// nothing that consumes it.
	scheduled bool
}

// push enqueues msg and reports whether the node was idle, i.e. whether
// the caller must put it on the run queue.
func (m *mailbox) push(msg message) (wake bool) {
	m.mu.Lock()
	if len(m.queue) == cap(m.queue) && m.head > 0 {
		// Full, with consumed slots in front: slide the live suffix down
		// instead of growing past what the backlog needs.
		n := copy(m.queue, m.queue[m.head:])
		clear(m.queue[n:])
		m.queue, m.head = m.queue[:n], 0
	}
	m.queue = append(m.queue, msg)
	wake = !m.scheduled
	m.scheduled = true
	m.mu.Unlock()
	return wake
}

// pop dequeues the oldest message. On an empty queue it clears the
// scheduled flag and reports false.
func (m *mailbox) pop() (message, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.head == len(m.queue) {
		m.scheduled = false
		return message{}, false
	}
	msg := m.queue[m.head]
	m.queue[m.head] = message{} // drop payload references held by the backing array
	m.head++
	if m.head == len(m.queue) {
		m.rewind()
	}
	return msg, true
}

// rewind resets a drained queue to the start of its backing array, or
// drops the array when a burst grew it past mailboxKeepCap.
func (m *mailbox) rewind() {
	m.head = 0
	if cap(m.queue) > mailboxKeepCap {
		m.queue = nil
	} else {
		m.queue = m.queue[:0]
	}
}

// size returns the queue length (diagnostics).
func (m *mailbox) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue) - m.head
}

// takeAt removes and returns the i-th queued message. The deterministic
// Sim scheduler uses it to deliver messages in a chosen cross-sender
// order (per-sender FIFO is the caller's responsibility to respect).
func (m *mailbox) takeAt(i int) message {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.head + i
	msg := m.queue[j]
	copy(m.queue[j:], m.queue[j+1:])
	m.queue[len(m.queue)-1] = message{}
	m.queue = m.queue[:len(m.queue)-1]
	if m.head == len(m.queue) {
		m.rewind()
	}
	return msg
}

// peekAll returns a copy of the queued messages in FIFO order
// (diagnostics and the Sim scheduler's enabled-set computation).
func (m *mailbox) peekAll() []message {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]message(nil), m.queue[m.head:]...)
}
