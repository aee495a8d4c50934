package scenario

// Chaos differential: a randomized kill/join workload driven through a
// distributed network whose transport injects a deterministic fault
// schedule — frame drops, duplicates, delays, partitions, and fail-stop
// crashes at named protocol steps. The oracle is NOT the issued
// workload: a crash rewrites history (an aborted kill never heals; the
// recovery heals the crashed set as one batch), so at every drain point
// the network's own effective-operation log is replayed through a fresh
// sequential engine and the drained network must match it bit for bit —
// topology G, healing forest G′, every label, every δ, and the Lemma 9
// flood accounting. Drops, duplicates, and delays must be invisible in
// that comparison; crashes must appear exactly as the log says.
//
// The workload generator is its own, because it must tolerate faults
// (see ChaosConfig.Ops), but the check at each window flush is the one
// ReplayDifferential makes (drainAndCompare in differential.go); only
// the oracle differs.
//
// This is the scenario-scale complement to internal/dist's fixed-attack
// chaos tests and the modelcheck package's exhaustive small-config
// fault enumeration: randomized schedules, thousands of nodes, the real
// concurrent runtime.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dist/chaos"
	"repro/internal/gen"
	"repro/internal/rng"
)

// ChaosConfig is one chaos differential run.
type ChaosConfig struct {
	// N is the size of the Barabási–Albert start graph (m = 3).
	N int
	// Seed derives the topology, the initial IDs, the workload stream,
	// and the join-ID stream (Seed+1). It is independent of Plan.Seed,
	// which drives the fault draws.
	Seed uint64
	// Plan is the deterministic fault schedule (nil: direct transport,
	// which turns the run into a plain windowed differential).
	Plan *chaos.Plan
	// Ops is how many mutations to attempt. An attempt the network
	// refuses, because its target has crashed or is doomed by a pending
	// epoch, is skipped, not retried — the workload generator cannot know
	// what the fault plan killed.
	Ops int
	// JoinEvery makes every k-th attempt a join (0: kills only).
	JoinEvery int
	// Window is the number of issued epochs between drain-and-verify
	// flushes (0: DefaultDiffWindow).
	Window int
	// Timeout bounds each drain.
	Timeout time.Duration
}

// ChaosReport summarizes one chaos differential run.
type ChaosReport struct {
	Kills   int // kill epochs issued
	Joins   int // join epochs issued
	Skipped int // attempts refused because a fault got there first
	Checks  int // drain-and-verify flushes that passed
	Crashes int // nodes fail-stopped by the plan
	Stats   dist.ChaosStats
}

// Validate reports a config ReplayChaosDifferential cannot run.
func (cfg ChaosConfig) Validate() error {
	if cfg.N < 8 || cfg.Ops < 1 {
		return fmt.Errorf("scenario: chaos config needs N ≥ 8 and Ops ≥ 1")
	}
	return nil
}

// ReplayChaosDifferential runs cfg's workload against a chaos-transport
// network and verifies the drained state against the sequential replay
// of the network's effective-operation log at every window flush.
func ReplayChaosDifferential(cfg ChaosConfig) (ChaosReport, error) {
	var rep ChaosReport
	if err := cfg.Validate(); err != nil {
		return rep, err
	}
	window := cfg.Window
	if window <= 0 {
		window = DefaultDiffWindow
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}

	// The sequential replay must be reconstructible from scratch at
	// every flush, so topology and IDs come from a fixed split recipe.
	build := func() *core.State {
		master := rng.New(cfg.Seed)
		g := gen.BarabasiAlbert(cfg.N, 3, master.Split())
		return core.NewState(g, master.Split())
	}
	base := build()
	ids := dist.InitIDs(base)
	nw, err := dist.NewChaos(base.G.Clone(), ids, dist.HealDASH, cfg.Plan)
	if err != nil {
		return rep, err
	}
	defer nw.Close()

	// Workload state. alive tracks the generator's own view — stale the
	// moment a crash fires, which is exactly why every op goes out
	// through Issue, whose check and issue are atomic under the
	// scheduler lock.
	wkR := rng.New(cfg.Seed*2654435761 + 17)
	alive := make([]int, cfg.N)
	for v := range alive {
		alive[v] = v
	}
	removeAlive := func(i int) {
		alive[i] = alive[len(alive)-1]
		alive = alive[:len(alive)-1]
	}

	// Join IDs come from rng.New(Seed+1), the stream the effective log
	// is replayed with, and slots follow the accepted joins.
	joinIDs := dist.NewJoinIDs(rng.New(cfg.Seed+1), ids)

	// The oracle is a fresh sequential engine replaying the network's
	// effective-operation log, not the issued workload.
	oracle := func() (*core.State, error) {
		seq := build()
		err := dist.ReplayEffective(seq, nw.EffectiveOps(), core.DASH{}, rng.New(cfg.Seed+1))
		return seq, err
	}
	verify := func() error {
		if err := drainAndCompare(nw, timeout, oracle); err != nil {
			return fmt.Errorf("after %d issued ops: %w", rep.Kills+rep.Joins, err)
		}
		rep.Checks++
		return nil
	}

	inFlight := 0
	for i := 0; i < cfg.Ops && len(alive) > cfg.N/2; i++ {
		join := cfg.JoinEvery > 0 && (i+1)%cfg.JoinEvery == 0
		var (
			op dist.Op
			vi int
		)
		if join {
			// Join attached to two distinct survivors.
			ai := wkR.Intn(len(alive))
			bi := wkR.Intn(len(alive))
			attach := []int{alive[ai]}
			if alive[bi] != alive[ai] {
				attach = append(attach, alive[bi])
			}
			op = dist.Op{Kind: dist.OpJoin, NewID: cfg.N + rep.Joins, Attach: attach, InitID: joinIDs.Next()}
		} else {
			vi = wkR.Intn(len(alive))
			op = dist.Op{Kind: dist.OpKill, Victim: alive[vi]}
		}
		ep, err := nw.Issue(op)
		if err != nil {
			return rep, fmt.Errorf("scenario: chaos op %d: %w", i+1, err)
		}
		switch {
		case ep == nil:
			// A fault got to the target first.
			rep.Skipped++
		case join:
			joinIDs.Use()
			alive = append(alive, op.NewID)
			rep.Joins++
		default:
			rep.Kills++
		}
		if !join {
			// Accepted or refused, the victim leaves the pool so the
			// workload moves on.
			removeAlive(vi)
		}
		if ep != nil {
			inFlight++
		}
		if inFlight >= window {
			if err := verify(); err != nil {
				return rep, fmt.Errorf("scenario: chaos flush after %d ops: %w", i+1, err)
			}
			inFlight = 0
		}
	}
	if err := verify(); err != nil {
		return rep, fmt.Errorf("scenario: chaos final drain: %w", err)
	}
	rep.Crashes = nw.CrashCount()
	rep.Stats, _ = nw.ChaosTransportStats()
	return rep, nil
}
