// Command selfheal runs a single self-healing experiment: a graph family,
// an attack strategy and a healing strategy, over several random
// instances, and prints the aggregate statistics.
//
// Examples:
//
//	selfheal -n 512 -heal DASH -attack NeighborOfMax -trials 30
//	selfheal -n 256 -graph tree -heal LineHeal -attack MaxNode
//	selfheal -n 512 -heal SDASH -attack MaxNode -stretch-every 25
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	os.Exit(cli.Run("selfheal", realMain))
}

// realMain is the single exit path: strategy/family resolution mistakes
// exit 2, experiment and output failures exit 1.
func realMain() error {
	var (
		n            = flag.Int("n", 256, "initial number of nodes")
		m            = flag.Int("m", 3, "Barabási–Albert attachment parameter")
		family       = flag.String("graph", "ba", "graph family: ba | tree | ring | line | grid | er")
		healName     = flag.String("heal", "DASH", "healing strategy (see -list)")
		attackName   = flag.String("attack", "NeighborOfMax", "attack strategy: MaxNode | NeighborOfMax | Random | MinNode")
		trials       = flag.Int("trials", 10, "random instances to average over")
		seed         = flag.Uint64("seed", 1, "master random seed")
		fraction     = flag.Float64("fraction", 1.0, "fraction of nodes to delete (0 < f <= 1)")
		stretchEvery = flag.Int("stretch-every", 0, "measure stretch every k rounds (0 = off; O(n·m) per snapshot)")
		list         = flag.Bool("list", false, "list available strategies and exit")
		csv          = flag.Bool("csv", false, "emit per-trial CSV instead of a summary table")
		dotFile      = flag.String("dot", "", "additionally run one interactive trial and write the final healed topology as Graphviz DOT to this file (healing edges in red)")
		showTrace    = flag.Bool("trace", false, "additionally run one traced trial and print its event summary")
	)
	flag.Parse()

	if *list {
		fmt.Println("healers:", repro.HealerNames())
		fmt.Println("attacks: [MaxNode MinNode NeighborOfMax Random]")
		return nil
	}

	healer, err := repro.HealerByName(*healName)
	if err != nil {
		return cli.WrapUsage(err)
	}
	newAttack, err := repro.AttackByName(*attackName)
	if err != nil {
		return cli.WrapUsage(err)
	}
	newGraph, nodes, err := graphGen(*family, *n, *m)
	if err != nil {
		return cli.WrapUsage(err)
	}
	rounds, err := deletionRounds(*fraction, nodes)
	if err != nil {
		return err
	}

	res := repro.Run(repro.Config{
		NewGraph:          newGraph,
		NewAttack:         newAttack,
		Healer:            healer,
		Trials:            *trials,
		Seed:              *seed,
		Rounds:            rounds,
		StretchEvery:      *stretchEvery,
		TrackConnectivity: true,
	})

	if *csv {
		fmt.Println("trial,n,rounds,peak_max_delta,max_id_changes,max_messages,max_stretch,surrogations,edges_added,always_connected")
		for i, t := range res.Trials {
			fmt.Printf("%d,%d,%d,%d,%d,%d,%s,%d,%d,%v\n",
				i, t.N, t.Rounds, t.PeakMaxDelta, t.MaxIDChanges, t.MaxMessages,
				stats.FormatFloat(t.MaxStretch), t.Surrogations, t.EdgesAdded, t.AlwaysConnected)
		}
		return nil
	}

	fmt.Printf("graph=%s(n=%d) attack=%s heal=%s trials=%d seed=%d\n\n",
		*family, *n, res.AttackName, res.HealerName, *trials, *seed)
	t := &stats.Table{Header: []string{"metric", "mean", "std", "min", "max"}}
	row := func(name string, s stats.Summary) {
		t.AddRow(name, s.Mean, s.Std, s.Min, s.Max)
	}
	row("peak max degree increase", res.PeakMaxDelta)
	row("max ID changes per node", res.MaxIDChanges)
	row("max messages per node", res.MaxMessages)
	if *stretchEvery > 0 {
		row("max stretch", res.MaxStretch)
	}
	row("healing edges added", res.EdgesAdded)
	fmt.Print(t.String())

	connected := 0
	for _, tr := range res.Trials {
		if tr.AlwaysConnected {
			connected++
		}
	}
	fmt.Printf("\nconnectivity maintained in %d/%d trials\n", connected, len(res.Trials))

	if *dotFile != "" {
		if err := writeDOT(*dotFile, newGraph, healer, newAttack, *seed, *fraction); err != nil {
			return err
		}
		fmt.Printf("wrote healed topology to %s\n", *dotFile)
	}
	if *showTrace {
		fmt.Println("trace:", runTraced(newGraph, healer, newAttack, *seed, rounds))
	}
	return nil
}

// deletionRounds turns -fraction into the deletion count per trial:
// ceil(fraction · nodes). A fraction outside (0, 1] is a usage error.
func deletionRounds(fraction float64, nodes int) (int, error) {
	if !(fraction > 0 && fraction <= 1) {
		return 0, cli.Usagef("-fraction %v is outside (0, 1]", fraction)
	}
	return int(math.Ceil(fraction * float64(nodes))), nil
}

// runTraced runs one extra trial of the given deletion count with the
// event recorder attached, verifies the trace replays to the live
// topology, and returns the event summary.
func runTraced(newGraph func(*rng.RNG) *graph.Graph, healer repro.Healer,
	newAttack func() repro.Strategy, seed uint64, rounds int) string {
	master := rng.New(seed)
	initial := newGraph(master.Split())
	s := core.NewState(initial.Clone(), master.Split())
	rec := trace.Attach(s)
	att := newAttack()
	attR := master.Split()
	for i := 0; i < rounds && s.G.NumAlive() > 0; i++ {
		v := att.Next(s, attR)
		if v == repro.NoTarget {
			break
		}
		s.DeleteAndHeal(v, healer)
	}
	g, gp, err := trace.Replay(initial, rec.Events())
	status := "replay=ok"
	if err != nil {
		status = "replay error: " + err.Error()
	} else if !g.Equal(s.G) || !gp.Equal(s.Gp) {
		status = "replay=MISMATCH"
	}
	return rec.Summary() + " " + status
}

// writeDOT runs one extra trial to the requested fraction and dumps the
// resulting topology, healing edges highlighted. A full-deletion run
// would leave nothing to draw, so fractions outside (0,1) snapshot at
// half deletion instead.
func writeDOT(path string, newGraph func(*rng.RNG) *graph.Graph, healer repro.Healer,
	newAttack func() repro.Strategy, seed uint64, fraction float64) error {
	master := rng.New(seed)
	s := core.NewState(newGraph(master.Split()), master.Split())
	att := newAttack()
	attR := master.Split()
	if fraction <= 0 || fraction >= 1 {
		fraction = 0.5
	}
	limit := int(fraction * float64(s.G.NumAlive()))
	for i := 0; i < limit && s.G.NumAlive() > 0; i++ {
		v := att.Next(s, attR)
		if v == repro.NoTarget {
			break
		}
		s.DeleteAndHeal(v, healer)
	}
	return cli.WriteFile(path, os.Stdout, func(w io.Writer) error {
		return graphio.DOT(w, "healed", s.G, s.Gp)
	})
}

// graphGen maps a family name to a per-trial generator and the node
// count every generated graph has (grid rounds n up to a square).
func graphGen(family string, n, m int) (func(*rng.RNG) *graph.Graph, int, error) {
	switch family {
	case "ba":
		if err := gen.CheckBarabasiAlbert(n, m); err != nil {
			return nil, 0, err
		}
		return func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(n, m, r) }, n, nil
	case "tree":
		return func(r *rng.RNG) *graph.Graph { return gen.RandomRecursiveTree(n, r) }, n, nil
	case "ring":
		return func(*rng.RNG) *graph.Graph { return gen.Ring(n) }, n, nil
	case "line":
		return func(*rng.RNG) *graph.Graph { return gen.Line(n) }, n, nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return func(*rng.RNG) *graph.Graph { return gen.Grid(side, side) }, side * side, nil
	case "er":
		p := 4.0 / float64(n) // sparse but connected-ish; planted tree keeps it connected
		return func(r *rng.RNG) *graph.Graph { return gen.ConnectedErdosRenyi(n, p, r) }, n, nil
	default:
		return nil, 0, fmt.Errorf("unknown graph family %q", family)
	}
}
