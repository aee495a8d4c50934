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
	// Ops is how many mutations to attempt. An attempt whose target has
	// crashed (or joined a pending epoch) is skipped, not retried — the
	// workload generator cannot know what the fault plan killed.
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

// ReplayChaosDifferential runs cfg's workload against a chaos-transport
// network and verifies the drained state against the sequential replay
// of the network's effective-operation log at every window flush.
func ReplayChaosDifferential(cfg ChaosConfig) (ChaosReport, error) {
	var rep ChaosReport
	if cfg.N < 8 || cfg.Ops < 1 {
		return rep, fmt.Errorf("scenario: chaos config needs N ≥ 8 and Ops ≥ 1")
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
	ids := make([]uint64, cfg.N)
	used := make(map[uint64]bool, cfg.N+cfg.Ops)
	for v := range ids {
		ids[v] = base.InitID(v)
		used[ids[v]] = true
	}
	nw, err := dist.NewChaos(base.G.Clone(), ids, dist.HealDASH, cfg.Plan)
	if err != nil {
		return rep, err
	}
	defer nw.Close()

	// Workload state. alive tracks the generator's own view — stale the
	// moment a crash fires, which is exactly why every issue goes
	// through the TryXxxAsync forms (check and issue are atomic under
	// the scheduler lock).
	wkR := rng.New(cfg.Seed*2654435761 + 17)
	alive := make([]int, cfg.N)
	for v := range alive {
		alive[v] = v
	}
	removeAlive := func(i int) {
		alive[i] = alive[len(alive)-1]
		alive = alive[:len(alive)-1]
	}

	// Join IDs come from rng.New(Seed+1), deduped against every ID in
	// play — the same draws core.Join makes when the effective log is
	// replayed with that stream. A refused join holds its draw for the
	// next attempt so accepted joins consume draws in order.
	joinR := rng.New(cfg.Seed + 1)
	var pendingID uint64
	havePending := false

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
		if cfg.JoinEvery > 0 && (i+1)%cfg.JoinEvery == 0 {
			// Join attached to two distinct survivors.
			ai := wkR.Intn(len(alive))
			bi := wkR.Intn(len(alive))
			attach := []int{alive[ai]}
			if alive[bi] != alive[ai] {
				attach = append(attach, alive[bi])
			}
			if !havePending {
				pendingID = joinR.Uint64()
				for used[pendingID] {
					pendingID = joinR.Uint64()
				}
				havePending = true
			}
			if v, ep := nw.TryJoinAsync(attach, pendingID); ep != nil {
				used[pendingID] = true
				havePending = false
				alive = append(alive, v)
				rep.Joins++
				inFlight++
			} else {
				rep.Skipped++
			}
		} else {
			vi := wkR.Intn(len(alive))
			if ep := nw.TryKillAsync(alive[vi]); ep != nil {
				removeAlive(vi)
				rep.Kills++
				inFlight++
			} else {
				// A fault beat the generator to this node; drop it from
				// the pool so the workload moves on.
				removeAlive(vi)
				rep.Skipped++
			}
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
