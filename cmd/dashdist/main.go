// Command dashdist runs the *distributed* DASH implementation: one
// actor per network node, run on a GOMAXPROCS worker pool, all
// coordination via messages (death
// notices, leader-collected heal reports, attach orders, hop-tagged
// label floods, NoN gossip). One round loop drives the attack: each
// round the attack picks a target on the sequential reference state,
// the round's victims die on both engines, and (with -verify, the
// default) the distributed network is cross-checked against the
// sequential reference: topology, healing edges, every label and δ, and
// the Lemma 9 flood accounting.
//
// Without -batch a round's victim is the target alone, healed by a
// single-kill epoch. With -batch k, each round is a correlated disaster
// instead: a BFS ball of up to k alive nodes around the target dies at
// once, healed by the distributed batch-kill epoch (tombstones,
// per-cluster leaders and representatives from the supervisor, then
// per-cluster reports, wiring and flood) and cross-checked against the
// sequential batch-DASH rule (core.DeleteBatchAndHeal).
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

// epochTimeout bounds each epoch's completion and each chaos drain.
const epochTimeout = 2 * time.Minute

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
	if err := gen.CheckBarabasiAlbert(*n, 3); err != nil {
		return cli.Usagef("-n %d: %v", *n, err)
	}
	if *chaosMode {
		return runChaosMode(*n, *seed, *healName,
			*chaosDrop, *chaosDup, *chaosDelay, *chaosCrash, *chaosSeed, *chaosOps)
	}
	if *every <= 0 {
		// The round loop computes round % every; never divide by zero.
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
	ids := dist.InitIDs(seq)
	nw := dist.NewKind(g.Clone(), ids, kind)
	defer nw.Close()

	fmt.Printf("distributed %s: %d node actors, %d edges, attack=%s, verify=%v\n\n",
		*healName, *n, g.NumEdges(), *attackName, *verify)

	diverged, err := runRounds(os.Stdout, seq, nw, seqHealer, newAttack(), master.Split(), *batch, *every, *verify)
	if err != nil {
		return err
	}
	if *verify {
		what, per := "distributed run", "every round"
		if *batch > 0 {
			what, per = "distributed batch run", "every epoch"
		}
		if diverged {
			fmt.Printf("\nresult: FAILED — %s diverged from the sequential reference\n", what)
			return fmt.Errorf("%s diverged from the sequential reference", what)
		}
		fmt.Printf("\nresult: %s matched the sequential reference exactly, %s\n", what, per)
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
	cfg := scenario.ChaosConfig{
		N:    n,
		Seed: seed,
		Plan: &chaos.Plan{
			Seed:    chaosSeed,
			Drop:    drop,
			Dup:     dup,
			Delay:   delay,
			Crashes: crashes,
		},
		Ops:       ops,
		JoinEvery: 5,
		Timeout:   epochTimeout,
	}
	if err := cfg.Validate(); err != nil {
		return cli.WrapUsage(err)
	}
	fmt.Printf("chaos DASH: %d nodes, %d op attempts, drop=%.2f dup=%.2f delay=%.2f, crashes=%q, fault seed %d\n\n",
		n, ops, drop, dup, delay, crashSpec, chaosSeed)
	start := time.Now()
	rep, err := scenario.ReplayChaosDifferential(cfg)
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

// runRounds drives the attack: each round the attack picks a target x
// on the sequential state, and the round's victims die on both engines
// as one dist.Op. With batch = 0 it kills x alone, healed by healer on
// the sequential side and by a kill epoch on the distributed one; with
// batch = k it kills a BFS ball of up to k alive nodes around x, healed
// by core.DeleteBatchAndHeal and by the staged batch-kill epoch. With
// verify every round is cross-checked exactly; every every rounds (and
// at the end) a status line is printed. It reports whether any round
// diverged, and fails if the network refuses an op or an epoch outlasts
// epochTimeout.
func runRounds(w io.Writer, seq *core.State, nw *dist.Network, healer core.Healer,
	att attack.Strategy, attR *rng.RNG, batch, every int, verify bool) (bool, error) {
	unit := "round"
	if batch > 0 {
		unit = "epoch"
	}
	diverged := false
	var ball graph.Region
	for round := 1; seq.G.NumAlive() > 0; round++ {
		x := att.Next(seq, attR)
		if x == attack.NoTarget {
			break
		}
		op := dist.Op{Kind: dist.OpKill, Victim: x}
		if batch > 0 {
			op = dist.Op{Kind: dist.OpBatch, Batch: seq.G.BFSBall(&ball, x, batch)}
		}
		if err := op.Apply(seq, healer, nil); err != nil {
			return diverged, err
		}
		// x was alive on seq, so a refusal means the engines drifted.
		ep, err := nw.Issue(op)
		if err == nil {
			err = ep.Wait(epochTimeout)
		}
		if err != nil {
			return diverged, fmt.Errorf("%s %d: %w", unit, round, err)
		}

		last := round%every == 0 || seq.G.NumAlive() == 0
		if !verify && !last {
			continue
		}
		err = nw.Diverges(seq)
		match := err == nil
		if verify && !match {
			diverged = true
			fmt.Fprintf(w, "%s %d: DIVERGENCE from sequential reference: %v\n", unit, round, err)
		}
		if !last {
			continue
		}
		snap := nw.Snapshot()
		fSum, fMax, rounds := nw.FloodStats()
		flood := fmt.Sprintf("flood depth amortized=%s worst=%d",
			stats.FormatFloat(float64(fSum)/float64(max(rounds, 1))), fMax)
		var label, coord, non int64
		for v := range snap.MsgSent {
			label += snap.MsgSent[v]
			coord += snap.CoordMsgs[v]
			non += snap.NoNMsgs[v]
		}
		msgs := fmt.Sprintf("label msgs=%d coord=%d NoN=%d", label, coord, non)
		if batch > 0 {
			fmt.Fprintf(w, "epoch %4d: killed %3d (ball around %5d) alive=%5d connected=%v match=%v | %s | %s\n",
				round, len(op.Batch), x, snap.G.NumAlive(), snap.G.Connected(), match, msgs, flood)
			continue
		}
		fmt.Fprintf(w, "round %4d: alive=%4d connected=%v match=%v | %s | %s\n",
			round, snap.G.NumAlive(), snap.G.Connected(), match, msgs, flood)
	}
	return diverged, nil
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
