// Distributed: DASH as an actual message-passing protocol. Every node of
// the network is an actor with a mailbox, run by a small pool of worker
// goroutines; the only coordination is
// typed messages (death notices, heal-info reports to a per-round leader,
// attach orders, ID-update floods, NoN gossip). A supervisor plays the
// failure detector and waits for each kill's epoch to complete.
//
// The run below also executes the identical attack against the
// sequential reference implementation and verifies, at every checkpoint,
// that the two agree exactly — topology, healing edges, every label and
// δ, and the flood accounting — so the protocol really is DASH. A
// divergence is an error, and the program exits 1.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/rng"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "distributed:", err)
		os.Exit(1)
	}
}

// run attacks a 200-node network to exhaustion on both engines and
// fails on the first divergence, refused kill or stalled epoch.
func run(w io.Writer) error {
	const n = 200
	g := gen.BarabasiAlbert(n, 3, rng.New(1))
	fmt.Fprintf(w, "starting %d node actors over a %d-edge overlay...\n", n, g.NumEdges())

	// Shared identities: the sequential reference assigns the random
	// initial IDs; the distributed network receives the same ones.
	seq := core.NewState(g.Clone(), rng.New(2))
	nw := dist.NewKind(g.Clone(), dist.InitIDs(seq), dist.HealDASH)
	defer nw.Close()

	adv := attack.NeighborOfMax{}
	advR := rng.New(3)
	for round := 1; seq.G.NumAlive() > 0; round++ {
		x := adv.Next(seq, advR)
		if x == attack.NoTarget {
			break
		}
		// One op for both engines: the sequential heal, then the
		// distributed epoch (death notices -> leader election -> heal).
		op := dist.Op{Kind: dist.OpKill, Victim: x}
		if err := op.Apply(seq, core.DASH{}, nil); err != nil {
			return err
		}
		ep, err := nw.Issue(op)
		if ep == nil && err == nil {
			err = fmt.Errorf("the network refused %v", op)
		}
		if err == nil {
			err = ep.Wait(30 * time.Second)
		}
		if err == nil && round%50 == 0 {
			err = nw.Diverges(seq) // G, G′, labels, δ and flood accounting
		}
		if err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		if round%50 != 0 {
			continue
		}

		snap := nw.Snapshot()
		var coord, non, lemma8 int64
		maxDelta := 0
		for v := 0; v < n; v++ {
			coord += snap.CoordMsgs[v]
			non += snap.NoNMsgs[v]
			lemma8 += snap.MsgSent[v]
			if snap.Delta[v] > maxDelta {
				maxDelta = snap.Delta[v]
			}
		}
		fmt.Fprintf(w, "round %3d: alive=%3d connected=%v matches-sequential=true\n",
			round, snap.G.NumAlive(), snap.G.Connected())
		fmt.Fprintf(w, "           max δ=%d (bound %.0f), traffic: %d label msgs, %d coordination, %d NoN gossip\n",
			maxDelta, 2*math.Log2(n), lemma8, coord, non)
	}

	fmt.Fprintln(w, "\ndistributed protocol matched the sequential reference at every checkpoint")
	return nil
}
