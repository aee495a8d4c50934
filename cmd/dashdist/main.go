// Command dashdist runs the *distributed* DASH implementation: one
// goroutine per network node, all coordination via messages (death
// notices, leader-collected heal reports, attach orders, hop-tagged
// label floods, NoN gossip). It optionally cross-checks every round
// against the sequential reference implementation: topology, healing
// edges, every label and δ, and the Lemma 9 flood accounting.
//
// With -batch k, each round is a correlated disaster instead of a
// single kill: a BFS ball of up to k alive nodes around the attack's
// chosen epicenter dies at once, healed by the distributed batch-kill
// epoch (cluster probe, candidate convergecast, per-cluster leader
// election and wiring) and cross-checked against the sequential
// batch-DASH rule (core.DeleteBatchAndHeal).
//
// Examples:
//
// With -chaos, the transport turns hostile: frames are dropped,
// duplicated, and delayed at the given rates, and nodes fail-stop at
// named protocol steps (-chaos-crash). The run is verified against the
// sequential replay of the network's own effective-operation log — the
// issued workload is no oracle once a crash rewrites history — and the
// process exits nonzero if the network fails to drain or diverges, so
// a fault schedule found by the fuzzer can be replayed from the shell.
//
// Examples:
//
//	dashdist -n 300 -attack NeighborOfMax
//	dashdist -n 200 -heal SDASH -verify=false
//	dashdist -n 500 -batch 24 -attack MaxNode
//	dashdist -n 400 -chaos -chaos-drop 0.08 -chaos-crash '*@heal-report:3'
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/internal/attack"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dist/chaos"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/stats"
)

func main() {
	os.Exit(cli.Run("dashdist", realMain))
}

// realMain is the single exit path: usage mistakes exit 2, runtime
// failures (including detected divergence) exit 1.
func realMain() error {
	var (
		n          = flag.Int("n", 200, "number of nodes (Barabási–Albert, m=3)")
		healName   = flag.String("heal", "DASH", "healing rule: DASH | SDASH")
		attackName = flag.String("attack", "NeighborOfMax", "attack strategy: MaxNode | NeighborOfMax | Random | MinNode | CutVertex")
		seed       = flag.Uint64("seed", 1, "master random seed")
		verify     = flag.Bool("verify", true, "cross-check each round against the sequential reference")
		every      = flag.Int("report-every", 50, "print a status line every k rounds")
		batch      = flag.Int("batch", 0, "disaster mode: kill a BFS ball of up to k nodes around the attack's epicenter per round (0 = single kills)")

		chaosMode  = flag.Bool("chaos", false, "hostile-network mode: fault-injecting transport, randomized kill/join workload, effective-op replay verification (ignores -attack, -batch, -verify)")
		chaosDrop  = flag.Float64("chaos-drop", 0.05, "chaos: per-frame drop probability")
		chaosDup   = flag.Float64("chaos-dup", 0.05, "chaos: per-frame duplication probability")
		chaosDelay = flag.Float64("chaos-delay", 0.05, "chaos: per-frame delay probability")
		chaosCrash = flag.String("chaos-crash", "*@heal-report:1,*@attach-ack:2", "chaos: crash schedule, comma-separated target@kind:nth (target * = any node)")
		chaosSeed  = flag.Uint64("chaos-seed", 1, "chaos: fault-plan seed (independent of -seed, which still drives topology and workload)")
		chaosOps   = flag.Int("chaos-ops", 80, "chaos: number of kill/join attempts")
	)
	flag.Parse()
	if *chaosMode {
		return runChaosMode(*n, *seed, *healName,
			*chaosDrop, *chaosDup, *chaosDelay, *chaosCrash, *chaosSeed, *chaosOps)
	}
	if *every <= 0 {
		// Both round loops compute round % every; never divide by zero.
		*every = 1
	}

	kind, seqHealer, err := pickHealer(*healName)
	if err != nil {
		return cli.WrapUsage(err)
	}
	newAttack, err := repro.AttackByName(*attackName)
	if err != nil {
		return cli.WrapUsage(err)
	}

	master := rng.New(*seed)
	g := gen.BarabasiAlbert(*n, 3, master.Split())
	seq := core.NewState(g.Clone(), master.Split())
	ids := make([]uint64, *n)
	for v := range ids {
		ids[v] = seq.InitID(v)
	}
	nw := dist.NewKind(g.Clone(), ids, kind)
	defer nw.Close()

	fmt.Printf("distributed %s: %d node goroutines, %d edges, attack=%s, verify=%v\n\n",
		*healName, *n, g.NumEdges(), *attackName, *verify)

	att := newAttack()
	attR := master.Split()
	if *batch > 0 {
		diverged := runBatchMode(os.Stdout, seq, nw, att, attR, *batch, *every, *verify)
		if *verify {
			if diverged {
				fmt.Println("\nresult: FAILED — distributed batch run diverged from the sequential reference")
				return fmt.Errorf("distributed batch run diverged from the sequential reference")
			}
			fmt.Println("\nresult: distributed batch run matched the sequential reference exactly, every epoch")
		}
		return nil
	}
	divergence := false
	for round := 1; seq.G.NumAlive() > 0; round++ {
		x := att.Next(seq, attR)
		if x == attack.NoTarget {
			break
		}
		seq.DeleteAndHeal(x, seqHealer)
		nw.Kill(x)

		if *verify || round%*every == 0 || seq.G.NumAlive() == 0 {
			err := nw.Diverges(seq)
			match := err == nil
			if *verify && !match {
				divergence = true
				fmt.Printf("round %d: DIVERGENCE from sequential reference: %v\n", round, err)
			}
			if round%*every == 0 || seq.G.NumAlive() == 0 {
				snap := nw.Snapshot()
				var label, coord, non int64
				for v := 0; v < *n; v++ {
					label += snap.MsgSent[v]
					coord += snap.CoordMsgs[v]
					non += snap.NoNMsgs[v]
				}
				fSum, fMax, rounds := nw.FloodStats()
				fmt.Printf("round %4d: alive=%4d connected=%v match=%v | label msgs=%d coord=%d NoN=%d | flood depth amortized=%s worst=%d\n",
					round, snap.G.NumAlive(), snap.G.Connected(), match,
					label, coord, non,
					stats.FormatFloat(float64(fSum)/float64(max(rounds, 1))), fMax)
			}
		}
	}

	if *verify {
		if divergence {
			fmt.Println("\nresult: FAILED — distributed run diverged from the sequential reference")
			return fmt.Errorf("distributed run diverged from the sequential reference")
		}
		fmt.Println("\nresult: distributed run matched the sequential reference exactly, every round")
	}
	return nil
}

// runChaosMode runs the scenario chaos differential with a fault plan
// built from the CLI flags; the returned error (exit 1) reports a
// network that failed to drain or drifted from the replay of its
// effective-operation log.
func runChaosMode(n int, seed uint64, healName string,
	drop, dup, delay float64, crashSpec string, chaosSeed uint64, ops int) error {
	if healName != "DASH" {
		return cli.Usagef("-chaos supports only -heal DASH (the recovery epoch heals crashed sets with the batch rule)")
	}
	crashes, err := chaos.ParseCrashes(crashSpec)
	if err != nil {
		return cli.WrapUsage(err)
	}
	plan := &chaos.Plan{
		Seed:    chaosSeed,
		Drop:    drop,
		Dup:     dup,
		Delay:   delay,
		Crashes: crashes,
	}
	fmt.Printf("chaos DASH: %d nodes, %d op attempts, drop=%.2f dup=%.2f delay=%.2f, crashes=%q, fault seed %d\n\n",
		n, ops, drop, dup, delay, crashSpec, chaosSeed)
	start := time.Now()
	rep, err := scenario.ReplayChaosDifferential(scenario.ChaosConfig{
		N:         n,
		Seed:      seed,
		Plan:      plan,
		Ops:       ops,
		JoinEvery: 5,
		Timeout:   2 * time.Minute,
	})
	fmt.Printf("%d kills, %d joins, %d skipped, %d checks passed, %d crashed nodes in %s\n",
		rep.Kills, rep.Joins, rep.Skipped, rep.Checks, rep.Crashes, time.Since(start).Round(time.Millisecond))
	fmt.Printf("transport: %d drops, %d dups, %d delays, %d retransmits\n", rep.Stats.Drops, rep.Stats.Dups, rep.Stats.Delays, rep.Stats.Retransmits)
	if err != nil {
		fmt.Printf("\nresult: FAILED — %v\n", err)
		return err
	}
	fmt.Println("\nresult: drained network matched the effective-op replay at every check")
	return nil
}

// runBatchMode drives disaster rounds: the attack picks an epicenter on
// the sequential state, a BFS ball of up to batchSize alive nodes dies
// as one batch, and both engines heal it — core.DeleteBatchAndHeal on
// the sequential side, the staged batch-kill epoch on the distributed
// side — with optional exact cross-checking per epoch. It reports
// whether any epoch diverged.
func runBatchMode(w io.Writer, seq *core.State, nw *dist.Network, att attack.Strategy,
	attR *rng.RNG, batchSize, every int, verify bool) bool {
	diverged := false
	var marks graph.Marks
	for round := 1; seq.G.NumAlive() > 0; round++ {
		center := att.Next(seq, attR)
		if center == attack.NoTarget {
			break
		}
		ball := seq.G.BFSBall(&marks, center, batchSize)
		seq.DeleteBatchAndHeal(ball)
		nw.KillBatch(ball)

		if verify || round%every == 0 || seq.G.NumAlive() == 0 {
			err := nw.Diverges(seq)
			match := err == nil
			if verify && !match {
				diverged = true
				fmt.Fprintf(w, "epoch %d: DIVERGENCE from sequential reference: %v\n", round, err)
			}
			if round%every == 0 || seq.G.NumAlive() == 0 {
				snap := nw.Snapshot()
				fSum, fMax, rounds := nw.FloodStats()
				fmt.Fprintf(w, "epoch %4d: killed %3d (ball around %5d) alive=%5d connected=%v match=%v | flood depth amortized=%s worst=%d\n",
					round, len(ball), center, snap.G.NumAlive(), snap.G.Connected(), match,
					stats.FormatFloat(float64(fSum)/float64(max(rounds, 1))), fMax)
			}
		}
	}
	return diverged
}

// pickHealer maps the flag to the distributed rule and the matching
// sequential reference healer.
func pickHealer(name string) (dist.HealerKind, core.Healer, error) {
	h, err := repro.HealerByName(name)
	if err != nil {
		return 0, nil, err
	}
	kind, err := dist.KindOf(h)
	return kind, h, err
}
