// Distributed: DASH as an actual message-passing protocol. Every node of
// the network is an actor with a mailbox, run by a small pool of worker
// goroutines; the only coordination is
// typed messages (death notices, heal-info reports to a per-round leader,
// attach orders, ID-update floods, NoN gossip). A supervisor plays the
// failure detector and waits for quiescence between attacks.
//
// The run below also executes the identical attack against the
// sequential reference implementation and verifies, at every checkpoint,
// that the two agree exactly — topology, healing edges, every label and
// δ, and the flood accounting — so the protocol really is DASH.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"math"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/rng"
)

func main() {
	const n = 200
	g := gen.BarabasiAlbert(n, 3, rng.New(1))
	fmt.Printf("starting %d node actors over a %d-edge overlay...\n", n, g.NumEdges())

	// Shared identities: the sequential reference assigns the random
	// initial IDs; the distributed network receives the same ones.
	seq := core.NewState(g.Clone(), rng.New(2))
	ids := dist.InitIDs(seq)
	nw := dist.New(g.Clone(), ids)
	defer nw.Close()

	adv := attack.NeighborOfMax{}
	advR := rng.New(3)
	divergences := 0
	for round := 1; seq.G.NumAlive() > 0; round++ {
		x := adv.Next(seq, advR)
		if x == attack.NoTarget {
			break
		}
		seq.DeleteAndHeal(x, core.DASH{})
		nw.Kill(x) // death notices -> leader election -> heal -> quiescence

		if round%50 == 0 {
			err := nw.Diverges(seq) // G, G′, labels, δ and flood accounting
			same := err == nil
			if !same {
				divergences++
				fmt.Printf("round %3d: DIVERGENCE: %v\n", round, err)
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
			fmt.Printf("round %3d: alive=%3d connected=%v matches-sequential=%v\n",
				round, snap.G.NumAlive(), snap.G.Connected(), same)
			fmt.Printf("           max δ=%d (bound %.0f), traffic: %d label msgs, %d coordination, %d NoN gossip\n",
				maxDelta, 2*math.Log2(n), lemma8, coord, non)
		}
	}

	if divergences == 0 {
		fmt.Println("\ndistributed protocol matched the sequential reference at every checkpoint")
	} else {
		fmt.Printf("\nWARNING: %d divergences from the sequential reference\n", divergences)
	}
}
