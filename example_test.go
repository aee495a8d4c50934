package repro_test

import (
	"fmt"
	"math"

	"repro"
)

// The library's core loop: attack, heal, observe the guarantee.
func Example() {
	const n = 128
	g := repro.NewBAGraph(n, 3, 1)
	sim := repro.NewSimulation(g, repro.DASH, repro.NeighborOfMax, 2)
	connected := true
	peak := 0
	for sim.Step() {
		connected = connected && sim.State.G.Connected()
		if d := sim.State.MaxDelta(); d > peak {
			peak = d
		}
	}
	fmt.Println("stayed connected:", connected)
	fmt.Println("degree bound respected:", float64(peak) <= 2*math.Log2(n))
	// Output:
	// stayed connected: true
	// degree bound respected: true
}

// Batch experiments aggregate statistics over independent random trials.
func ExampleRun() {
	res := repro.Run(repro.Config{
		NewGraph:          repro.BAGen(64, 3),
		NewAttack:         repro.MaxNode,
		Healer:            repro.SDASH,
		Trials:            5,
		Seed:              3,
		Rounds:            64,
		TrackConnectivity: true,
	})
	allConnected := true
	for _, t := range res.Trials {
		allConnected = allConnected && t.AlwaysConnected
	}
	fmt.Println("healer:", res.HealerName)
	fmt.Println("trials:", len(res.Trials))
	fmt.Println("all connected:", allConnected)
	// Output:
	// healer: SDASH
	// trials: 5
	// all connected: true
}

// Healers and attacks resolve by the names the paper's figures use.
func ExampleHealerByName() {
	h, err := repro.HealerByName("DASH")
	fmt.Println(h.Name(), err)
	_, err = repro.HealerByName("MagicHeal")
	fmt.Println(err != nil)
	// Output:
	// DASH <nil>
	// true
}
