package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// churnOp is one mutation of the recorded sequential run.
type churnOp struct {
	kill   bool
	node   int
	attach []int
	id     uint64
}

// recordedChurn is a sequential DASH sustained-churn run: the graph it
// started from, its node IDs, the ops it performed, and its final state.
type recordedChurn struct {
	initial *graph.Graph
	ids     []uint64
	ops     []churnOp
	final   *core.State
	gen     time.Duration
}

// recordChurn runs the sustained-churn preset through the sequential
// engine and captures its op stream through core hooks.
func recordChurn(n int, seed uint64) (*recordedChurn, error) {
	rc := &recordedChurn{}
	_, err := scenario.Run(scenario.Config{
		NewGraph: func(r *rng.RNG) *graph.Graph {
			t := time.Now()
			g := gen.BarabasiAlbert(n, 3, r)
			rc.gen = time.Since(t)
			rc.initial = g.Clone()
			return g
		},
		Schedule:     scenario.PresetSustainedChurn(n),
		Healer:       core.DASH{},
		Seed:         seed,
		MeasureEvery: -1,
		Observe: func(_ int, s *core.State) {
			rc.final = s
			rc.ids = make([]uint64, s.N())
			for v := range rc.ids {
				rc.ids[v] = s.InitID(v)
			}
			s.SetHooks(&core.Hooks{
				OnRemove: func(x int) { rc.ops = append(rc.ops, churnOp{kill: true, node: x}) },
				OnJoin: func(v int, attach []int) {
					rc.ops = append(rc.ops, churnOp{node: v, attach: append([]int(nil), attach...), id: s.InitID(v)})
				},
			})
		},
	})
	return rc, err
}

// distChurn replays recorded sustained-churn op streams on the
// goroutine-per-node distributed engine. Recording the stream and
// spawning the network is set-up; the timed phase issues the ops with
// KillAsync/JoinAsync in windows of scenario.DefaultDiffWindow, waits for
// each window's epochs, and drains the network at the end. An op's
// latency runs from its issue until its epoch is seen complete, waiting on
// a window's epochs in issue order.
func distChurn(env *runEnv) *outcome {
	o := newOutcome(env.tr != nil)
	var issue, wait, drain time.Duration
	var windows []time.Duration
	var msgs, floodDepth int64
	peakG := 0
	for round := 0; round == 0 || o.phase.wall < env.seconds; round++ {
		t := time.Now()
		rc, err := recordChurn(env.sz.distN, roundSeed(env.seed, round))
		if err != nil {
			o.failf("round %d: recording: %v", round, err)
			return o
		}
		nw := dist.NewKind(rc.initial.Clone(), rc.ids, dist.HealDASH)
		start := time.Now()
		o.setups = append(o.setups, start.Sub(t))
		o.gens = append(o.gens, rc.gen)
		o.phase.begin(start)
		err = replayWindows(nw, rc.ops, func(w0 time.Time, iss, wt time.Duration, lat []time.Duration) {
			env.tr.nextOp()
			env.tr.add(spDistIssue, w0, iss)
			env.tr.add(spDistWait, w0.Add(iss), wt)
			windows = append(windows, iss+wt)
			issue += iss
			wait += wt
			o.lat = append(o.lat, lat...)
			peakG = max(peakG, runtime.NumGoroutine())
		})
		d0 := time.Now()
		if err == nil {
			err = nw.Drain(30 * time.Second)
		}
		d1 := time.Now()
		o.phase.end(d1)
		drain += d1.Sub(d0)
		env.tr.add(spDistDrain, d0, d1.Sub(d0))
		if err != nil {
			o.failf("round %d: %v", round, err)
			nw.Close()
			return o
		}
		snap := nw.Snapshot()
		sum, maxDepth, rounds := nw.FloodStats()
		nw.Close()
		for _, c := range checkDist(snap, sum, maxDepth, rounds, rc.final) {
			o.failf("round %d: %s", round, c)
		}
		o.endRound(int64(len(rc.ops)), digestOf(snap.G.NumEdges(), snap.Gp.NumEdges(), sum, maxDepth, rounds, snap.CurID))
		for v := range snap.MsgSent {
			msgs += snap.MsgSent[v] + snap.CoordMsgs[v] + snap.NoNMsgs[v]
		}
		floodDepth += sum
	}
	if env.tr != nil {
		o.layer["dist.issue_ms"] = ms(issue)
		o.layer["dist.wait_ms"] = ms(wait)
		o.layer["dist.drain_ms"] = ms(drain)
		ws := summarize(windows)
		o.layer["dist.window_ms_p50"] = ws.P50us / 1000
		o.layer["dist.window_ms_p99"] = ws.P99us / 1000
		if o.ops > 0 {
			o.layer["dist.msgs_per_op"] = float64(msgs) / float64(o.ops)
		}
		o.layer["dist.flood_depth_sum"] = float64(floodDepth)
		o.layer["dist.goroutines_peak"] = float64(peakG)
		o.spanned = issue + wait + drain
	}
	return o
}

// replayWindows issues ops window by window and reports each window's
// start, time inside the *Async calls, time waiting, and per-op
// latencies.
func replayWindows(nw *dist.Network, ops []churnOp, report func(start time.Time, issue, wait time.Duration, lat []time.Duration)) error {
	size := scenario.DefaultDiffWindow
	eps := make([]*dist.Epoch, 0, size)
	issued := make([]time.Time, 0, size)
	lat := make([]time.Duration, 0, size)
	for i := 0; i < len(ops); i += size {
		eps, issued, lat = eps[:0], issued[:0], lat[:0]
		w0 := time.Now()
		for _, op := range ops[i:min(i+size, len(ops))] {
			t := time.Now()
			var ep *dist.Epoch
			if op.kill {
				ep = nw.KillAsync(op.node)
			} else {
				var v int
				v, ep = nw.JoinAsync(op.attach, op.id)
				if v != op.node {
					return fmt.Errorf("join got node %d, the sequential run %d", v, op.node)
				}
			}
			eps = append(eps, ep)
			issued = append(issued, t)
		}
		w1 := time.Now()
		for j, ep := range eps {
			if err := ep.Wait(30 * time.Second); err != nil {
				return err
			}
			lat = append(lat, time.Since(issued[j]))
		}
		report(w0, w1.Sub(w0), time.Since(w1), lat)
	}
	return nil
}

// checkDist holds the drained distributed network to the sequential run
// it replayed: the same G, G′, labels, δ and flood accounting, and a
// connected network.
func checkDist(snap *dist.Snap, sum int64, maxDepth, rounds int, seq *core.State) []string {
	var bad []string
	if !snap.G.Equal(seq.G) {
		bad = append(bad, "distributed G differs from the sequential run")
	}
	if !snap.Gp.Equal(seq.Gp) {
		bad = append(bad, "distributed G′ differs from the sequential run")
	}
	for _, v := range seq.G.AliveNodes() {
		if snap.CurID[v] != seq.CurID(v) || snap.Delta[v] != seq.Delta(v) {
			bad = append(bad, fmt.Sprintf("node %d label/δ differ from the sequential run", v))
			break
		}
	}
	if sum != seq.FloodDepthSum() || maxDepth != seq.MaxFloodDepth() || rounds != seq.Rounds() {
		bad = append(bad, fmt.Sprintf("flood stats (%d,%d,%d), sequential (%d,%d,%d)",
			sum, maxDepth, rounds, seq.FloodDepthSum(), seq.MaxFloodDepth(), seq.Rounds()))
	}
	if !snap.G.Connected() {
		bad = append(bad, "distributed network is disconnected")
	}
	return bad
}
