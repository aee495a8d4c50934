package dist

import (
	"testing"

	"repro/internal/graph"
)

// The tests in this file drive the protocol single-threaded: assemble()
// builds the network without starting the worker pool, and the test
// delivers mailbox messages one at a time in a chosen — deliberately
// adversarial — order. Every interleaving exercised here is one the
// concurrent scheduler could legally produce (per-sender FIFO is
// preserved; only cross-sender arrival order is chosen).

// deliverKind removes the first queued message of the given kind from
// v's mailbox and handles it on the test goroutine.
func deliverKind(t *testing.T, nw *Network, v int, kind msgKind) {
	t.Helper()
	nd := nw.node(v)
	idx := -1
	for i, m := range nd.inbox.peekAll() {
		if m.kind == kind {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatalf("node %d has no queued %v message", v, kind)
	}
	msg := nd.inbox.takeAt(idx)
	nd.handle(msg)
	nw.track.done(msg.epoch)
}

// drainAll delivers every remaining message in plain FIFO order until
// the network quiesces.
func drainAll(nw *Network) {
	for {
		progressed := false
		for _, nd := range nw.nodeSlice() {
			if nd == nil {
				continue
			}
			for {
				msg, ok := nd.inbox.pop()
				if !ok {
					break
				}
				progressed = true
				nd.handle(msg)
				nw.track.done(msg.epoch)
			}
		}
		if !progressed {
			return
		}
	}
}

// TestEarlyHelloIsBuffered reproduces the delivery race where one
// endpoint of a fresh healing edge receives its new peer's NoN hello
// before its own attach order. The hello must be buffered and applied
// when the attach lands — dropping it leaves the NoN table empty and a
// later death of that peer panics during leader election.
func TestEarlyHelloIsBuffered(t *testing.T) {
	// Path 0–1–2; killing 1 orphans {0,2}, and DASH wires the new edge
	// (0,2). Initial IDs make 0 the leader (smallest ID among orphans).
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	nw := assemble(g, []uint64{5, 1, 9}, HealDASH)

	nw.send(1, message{kind: msgDie})
	deliverKind(t, nw, 1, msgDie)         // death notices to 0 and 2
	deliverKind(t, nw, 0, msgDeathNotice) // 0 elects itself leader, reports to itself
	deliverKind(t, nw, 2, msgDeathNotice) // 2 reports to 0
	deliverKind(t, nw, 0, msgHealReport)  // own report
	deliverKind(t, nw, 0, msgHealReport)  // 2's report -> attach orders issued
	deliverKind(t, nw, 0, msgAttach)      // 0 wires (0,2), sends 2 its hello

	// Adversarial order: 2 sees 0's hello BEFORE its own attach order.
	deliverKind(t, nw, 2, msgNoNFull)
	deliverKind(t, nw, 2, msgAttach)

	info := nw.node(2).gNbrs.find(0)
	if info == nil {
		t.Fatal("node 2 did not attach to 0")
	}
	if info.nbrs == nil {
		t.Fatal("early hello was dropped: node 2 has an empty NoN view of new neighbor 0")
	}
	if _, ok := info.nbrs.search(2); !ok {
		t.Fatalf("node 2's NoN view of 0 = %v, missing 2 itself", info.nbrs)
	}

	drainAll(nw)
	if p := nw.track.pending(); p != 0 {
		t.Fatalf("%d messages still in flight after full drain", p)
	}
	// With consistent NoN tables the next deletion must heal cleanly:
	// killing 0 leaves only 2, which needs no new edges.
	nw.send(0, message{kind: msgDie})
	drainAll(nw)
	if p := nw.track.pending(); p != 0 {
		t.Fatalf("follow-up round left %d messages in flight", p)
	}
	if got := len(nw.node(2).gNbrs); got != 0 {
		t.Fatalf("node 2 still has %d neighbors after both peers died", got)
	}
}

// TestLateHelloAfterAttach is the mirror-image (normal) ordering, to pin
// both paths of the buffering logic.
func TestLateHelloAfterAttach(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	nw := assemble(g, []uint64{5, 1, 9}, HealDASH)

	nw.send(1, message{kind: msgDie})
	deliverKind(t, nw, 1, msgDie)
	deliverKind(t, nw, 0, msgDeathNotice)
	deliverKind(t, nw, 2, msgDeathNotice)
	deliverKind(t, nw, 0, msgHealReport)
	deliverKind(t, nw, 0, msgHealReport)
	deliverKind(t, nw, 2, msgAttach) // 2 attaches first this time
	deliverKind(t, nw, 0, msgAttach)
	deliverKind(t, nw, 2, msgNoNFull) // 0's hello arrives after the attach

	info := nw.node(2).gNbrs.find(0)
	if info == nil || info.nbrs == nil {
		t.Fatal("hello after attach not applied")
	}
	drainAll(nw)
	if p := nw.track.pending(); p != 0 {
		t.Fatalf("%d messages still in flight after drain", p)
	}
}
