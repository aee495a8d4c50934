package scenario

// The differential replay harness: one scenario schedule executed
// through the sequential engine (internal/core, driven by the scenario
// runner) and the distributed engine (internal/dist), with exact
// equivalence — topology G, healing forest G′, every component label,
// every δ, and the Lemma 9 flood accounting — asserted by
// dist.Network.Diverges at every window flush. Schedules may contain
// Disaster phases: correlated batch kills replay through the staged
// batch epoch and must match core.DeleteBatchAndHeal bit for bit.
//
// There is one replay loop. Every mutation is issued asynchronously,
// and once window of them are in flight at the end of an event the
// loop drains the network and compares. Window 1 checks after every
// mutating event; DefaultDiffWindow lets up to that many heal epochs
// overlap between checks, exercising the epoch scheduler's conflict
// chaining under the full scenario op mix at scale — the randomized,
// large-n complement to the modelcheck package's exhaustive
// small-config enumeration. The chaos differential (chaos.go) makes the
// same drain-and-compare step with a different oracle.
//
// The harness is a library (not test-only) so cmd/scenario can replay a
// preset differentially from the command line; the randomized-schedule
// tests in diff_test.go and the n = 10k gates CI runs are thin wrappers
// around ReplayDifferential.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/rng"
)

// DiffReport summarizes one differential replay.
type DiffReport struct {
	Events     int // schedule events executed
	Kills      int // single deletions replayed
	Joins      int // arrivals replayed
	BatchKills int // batch-kill epochs replayed
	Killed     int // nodes removed by batch kills
	Rounds     int // healing rounds (each batch epoch counts once)
}

// DefaultDiffWindow is the number of mutations a pipelined replay keeps
// in flight between drain-and-check flushes.
const DefaultDiffWindow = 8

// drainAndCompare is the check every replay loop makes at a flush: wait
// until no epoch is in flight, then compare the drained network with
// the sequential state oracle returns. The oracle runs after the drain
// because a crash during the drain can still rewrite a chaos run's
// effective-operation log.
func drainAndCompare(nw *dist.Network, timeout time.Duration, oracle func() (*core.State, error)) error {
	if err := nw.Drain(timeout); err != nil {
		return err
	}
	seq, err := oracle()
	if err != nil {
		return err
	}
	return nw.Diverges(seq)
}

// ReplayDifferential executes one trial of cfg's schedule through the
// sequential engine and replays every mutation — single kills, joins,
// and batch-kill epochs — onto a distributed network of the matching
// healer kind. Mutations are issued asynchronously; whenever window or
// more are in flight at the end of an event, and once at the end, the
// network is drained and checked for exact G/G′/label/δ equality,
// flood-depth accounting included. Window 1 checks after every mutating
// event; window ≤ 0 means DefaultDiffWindow, as in ChaosConfig.Window.
// cfg.Observe is taken over by the harness (a caller-provided Observe is
// still invoked first); Trials and Workers are ignored — a differential
// replay is inherently one serial trial. The timeout bounds each drain.
func ReplayDifferential(cfg Config, window int, timeout time.Duration) (DiffReport, error) {
	kind, err := dist.KindOf(cfg.Healer)
	if err != nil {
		return DiffReport{}, fmt.Errorf("scenario: %w", err)
	}
	return replayDifferential(cfg, kind, window, timeout)
}

// replayDifferential replays cfg's mutations onto a network healing by
// kind, which should mirror cfg.Healer.
func replayDifferential(cfg Config, kind dist.HealerKind, window int, timeout time.Duration) (DiffReport, error) {
	events, err := cfg.Schedule.Compile()
	if err != nil {
		return DiffReport{}, err
	}
	if cfg.NewGraph == nil {
		return DiffReport{}, fmt.Errorf("scenario: Config needs NewGraph")
	}
	if window <= 0 {
		window = DefaultDiffWindow
	}
	newVictim := cfg.NewVictim
	if newVictim == nil {
		newVictim = func() VictimPolicy { return Uniform{} }
	}

	// The sequential runner's mutations are captured through core hooks
	// as dist.Ops and issued to the network after each event.
	var (
		rep      DiffReport
		seqState *core.State
		ops      []dist.Op
		pending  map[int]bool // members of the batch op being captured
	)
	userObserve := cfg.Observe
	cfg.Observe = func(trial int, s *core.State) {
		if userObserve != nil {
			userObserve(trial, s)
		}
		seqState = s
		s.SetHooks(&core.Hooks{
			OnBatchKill: func(xs []int) {
				batch := append([]int(nil), xs...)
				ops = append(ops, dist.Op{Kind: dist.OpBatch, Batch: batch})
				rep.BatchKills++
				rep.Killed += len(batch)
				if pending == nil {
					pending = make(map[int]bool)
				}
				for _, x := range batch {
					pending[x] = true
				}
			},
			OnRemove: func(x int) {
				if pending[x] {
					// Constituent removal of the batch op just captured.
					delete(pending, x)
					return
				}
				ops = append(ops, dist.Op{Kind: dist.OpKill, Victim: x})
				rep.Kills++
			},
			OnJoin: func(v int, attach []int) {
				ops = append(ops, dist.Op{
					Kind:   dist.OpJoin,
					NewID:  v,
					Attach: append([]int(nil), attach...),
					InitID: s.InitID(v),
				})
				rep.Joins++
			},
		})
	}

	master := rng.New(cfg.Seed)
	run := newTrialRun(cfg, events, newVictim(), 0, master.Split())
	if seqState == nil {
		return DiffReport{}, fmt.Errorf("scenario: Observe never fired")
	}
	nw := dist.NewKind(seqState.G.Clone(), dist.InitIDs(seqState), kind)
	defer nw.Close()

	oracle := func() (*core.State, error) { return seqState, nil }
	inFlight := 0
	flush := func() error {
		if err := drainAndCompare(nw, timeout, oracle); err != nil {
			return fmt.Errorf("event %d (flush of %d in-flight epochs): %w", run.res.Events, inFlight, err)
		}
		inFlight = 0
		return nil
	}
	for {
		more := run.step()
		for _, op := range ops {
			if _, err := nw.Issue(op); err != nil {
				return rep, fmt.Errorf("event %d: %w", run.res.Events, err)
			}
			inFlight++
		}
		ops = ops[:0]
		// Drain and verify only once a window is full, so up to a
		// window's worth of heal epochs overlap in between.
		if inFlight >= window {
			if err := flush(); err != nil {
				return rep, err
			}
		}
		if !more {
			break
		}
	}
	if inFlight > 0 {
		if err := flush(); err != nil {
			return rep, err
		}
	}
	rep.Events = run.finish().Events
	_, _, rep.Rounds = nw.FloodStats()
	return rep, nil
}
