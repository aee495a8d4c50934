// Overlay: the paper's motivating scenario — a Skype-like peer-to-peer
// overlay whose supernodes are attacked. The 2007 Skype outage (200M
// users, 48 hours) is attributed to failed "self-healing mechanisms";
// this example compares what happens to an overlay with no healing, with
// naive healing, and with DASH/SDASH when an adversary keeps shooting at
// the neighborhood of the biggest hub.
//
//	go run ./examples/overlay
package main

import (
	"fmt"

	"repro"
	"repro/internal/metrics"
)

func main() {
	const (
		n     = 400
		trial = 5
	)
	fmt.Printf("p2p overlay: %d peers (power-law, Barabási–Albert m=3)\n", n)
	fmt.Printf("adversary: repeatedly deletes a random neighbor of the current hub\n")
	fmt.Printf("question:  who keeps the overlay connected, and at what cost?\n\n")

	fmt.Printf("%-14s %-12s %-12s %-12s %-10s\n",
		"healer", "connected", "peak δ", "worst msgs", "stretch")
	for _, h := range []repro.Healer{repro.NoHeal, repro.GraphHeal,
		repro.BinaryTreeHeal, repro.DASH, repro.SDASH} {
		res := repro.Run(repro.Config{
			NewGraph:          repro.BAGen(n, 3),
			NewAttack:         repro.NeighborOfMax,
			Healer:            h,
			Trials:            trial,
			Seed:              7,
			Rounds:            n / 2, // half the overlay is shot down
			StretchEvery:      n / 10,
			TrackConnectivity: true,
		})
		connected := 0
		for _, t := range res.Trials {
			if t.AlwaysConnected {
				connected++
			}
		}
		fmt.Printf("%-14s %d/%-10d %-12.1f %-12.0f %.2f\n",
			res.HealerName, connected, trial,
			res.PeakMaxDelta.Mean, res.MaxMessages.Mean, res.MaxStretch.Mean)
	}

	fmt.Println("\nreading the table:")
	fmt.Println("- NoHeal shatters: the overlay partitions (stretch +Inf).")
	fmt.Println("- GraphHeal stays connected but turns some peer into a megahub")
	fmt.Println("  (huge δ): that peer is the next single point of failure.")
	fmt.Println("- DASH keeps everyone's degree within 2·log₂ n; SDASH does the")
	fmt.Println("  same while also keeping routes short (low stretch).")

	// Zoom in: one DASH run, reporting the overlay's health trajectory.
	fmt.Println("\none DASH run in detail:")
	g := repro.NewBAGraph(n, 3, 99)
	st := metrics.NewStretch(g)
	sim := repro.NewSimulation(g, repro.DASH, repro.NeighborOfMax, 100)
	for round := 1; round <= n/2; round++ {
		if !sim.Step() {
			break
		}
		if round%(n/8) == 0 {
			r := st.Measure(sim.State.G)
			fmt.Printf("  %3d peers lost: connected=%v, max δ=%d, stretch=%.2f\n",
				round, sim.State.G.Connected(), sim.State.MaxDelta(), r.Max)
		}
	}
}
