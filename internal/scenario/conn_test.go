package scenario

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// partialHeal is a deliberately broken healer for single and batch
// deletions alike: it wires a line over the first half of the nodes a
// healer would reconnect (the reconnection set of a single deletion,
// the alive boundary of a batch) and leaves the rest to whatever paths
// survive, so some witness groups merge and others do not. With none
// set it wires nothing at all — unlike noHeal, whose batch kills fall
// back to the DASH batch rule.
type partialHeal struct{ none bool }

func (p partialHeal) Name() string { return "PartialHeal" }

func (p partialHeal) Heal(s *core.State, d core.Deletion) core.HealResult {
	// Without MINID floods the labels go stale, so a G′ neighbor can
	// also be a unique neighbor: compact the sorted set.
	return p.wireHalf(s, slices.Compact(s.ReconnectSet(d)))
}

func (p partialHeal) HealBatch(s *core.State, dels []core.Deletion) core.HealResult {
	var boundary []int
	for _, d := range dels {
		for _, v := range d.GNbrs {
			if s.G.Alive(v) {
				boundary = append(boundary, v)
			}
		}
	}
	slices.Sort(boundary)
	return p.wireHalf(s, slices.Compact(boundary))
}

func (p partialHeal) wireHalf(s *core.State, members []int) core.HealResult {
	if p.none {
		return core.HealResult{}
	}
	return core.HealResult{Added: s.WireLine(members[:(len(members)+1)/2])}
}

// TestConnTrackerHubScale is the differential test at hub scale: on a
// BA graph with n = 2048, MaxNode victims (each deletion hands the
// tracker a hub's hundred-odd neighbors) and disaster balls, healed by
// a healer that wires nothing or only half of each reconnection set,
// the tracker's StillConnected and FirstBreak must equal a full
// G.Connected() recompute at every check up to the first break, at
// cadence 1 and 8.
func TestConnTrackerHubScale(t *testing.T) {
	sc := Schedule{Name: "hubs", Phases: []Phase{
		Attrition(64), Disaster(4, 32), Churn(128, 4, 3), Disaster(4, 32), Attrition(256),
	}}
	events, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	breaks := map[string]int{}
	mergedChecks, maxWitnesses := 0, 0
	for _, h := range []partialHeal{{none: true}, {}} {
		name := map[bool]string{true: "none", false: "half"}[h.none]
		for _, every := range []int{1, 8} {
			for seed := uint64(1); seed <= 4; seed++ {
				cfg := baseConfig(2048, sc)
				cfg.Seed = seed
				cfg.Healer = h
				cfg.MeasureEvery = -1
				cfg.ConnectivityEvery = every
				run := newTrialRun(cfg, events, NewMaxDegree(), 0, rng.New(seed).Split())
				// The reference verdict changes only where the tracker
				// checks: after every cadence-th deletion event.
				refOK, refFirst := true, -1
				for refOK {
					i := run.res.Events
					kind := events[i].Kind
					more := run.step()
					if kind == OpDelete {
						maxWitnesses = max(maxWitnesses, len(run.nbrScratch))
					}
					checked := (kind == OpDelete || kind == OpBatchKill) && run.conn.sinceCheck == 0
					if checked && !run.s.G.Connected() {
						refOK, refFirst = false, i
					} else if checked && !h.none {
						mergedChecks++
					}
					if run.conn.StillConnected() != refOK || run.conn.FirstBreak() != refFirst {
						t.Fatalf("%s every=%d seed %d event %d: tracker (%v, first break %d), recompute (%v, %d)",
							name, every, seed, i, run.conn.StillConnected(), run.conn.FirstBreak(), refOK, refFirst)
					}
					if !more {
						break
					}
				}
				if refOK {
					res := run.finish()
					if refOK = run.s.G.Connected(); !refOK {
						refFirst = res.Events
					}
					if res.AlwaysConnected != refOK || res.FirstBreak != refFirst {
						t.Fatalf("%s every=%d seed %d: final tracker (%v, %d), recompute (%v, %d)",
							name, every, seed, res.AlwaysConnected, res.FirstBreak, refOK, refFirst)
					}
				}
				if !refOK {
					breaks[name]++
				}
			}
		}
	}
	t.Logf("breaks %v, connected half-healed checks %d, largest deletion witness set %d",
		breaks, mergedChecks, maxWitnesses)
	if breaks["none"] == 0 || breaks["half"] == 0 || mergedChecks == 0 || maxWitnesses < 64 {
		t.Fatal("schedule no longer exercises both verdicts at hub scale")
	}
}

// TestConnTrackerHubCheckStaysLocal pins the locality of the check
// without timing it: DASH wires a hub's former neighbors to each other,
// so verifying the first max-degree deletion on a fresh BA graph must
// reach nothing beyond the witnesses' own adjacency lists.
func TestConnTrackerHubCheckStaysLocal(t *testing.T) {
	s := core.NewState(gen.BarabasiAlbert(8192, 3, rng.New(1)), rng.New(2))
	conn := NewConnTracker(s.G, 1)
	hub := NewMaxDegree().Pick(s, nil, nil)
	witnesses := s.G.AppendNeighbors(nil, hub)
	s.DeleteAndHeal(hub, core.DASH{})
	conn.AfterDelete(s.G, witnesses, 0)
	if !conn.StillConnected() {
		t.Fatal("DASH-healed hub deletion reported as a partition")
	}
	near := make([]bool, s.G.N())
	for _, w := range witnesses {
		near[w] = true
		for _, u := range s.G.Neighbors(w) {
			near[u] = true
		}
	}
	reached := conn.region.Nodes
	for _, v := range reached {
		if !near[v] {
			t.Fatalf("check reached node %d, outside the %d witnesses' adjacency lists", v, len(witnesses))
		}
	}
	t.Logf("%d witnesses, %d nodes reached of %d", len(witnesses), len(reached), s.G.NumAlive())
}

// TestConnTrackerPartitionCostsSmallSide pins the cost of a real
// partition: cutting a 10⁴-node line three nodes from one end leaves a
// 3-node side, and the check must latch the break once that side runs
// dry, not after walking the other 9996 nodes.
func TestConnTrackerPartitionCostsSmallSide(t *testing.T) {
	g := gen.Line(10_000)
	conn := NewConnTracker(g, 1)
	g.RemoveNode(3)
	conn.AfterDelete(g, []int{2, 4}, 7)
	if conn.StillConnected() || conn.FirstBreak() != 7 {
		t.Fatalf("tracker (%v, first break %d), want the cut latched at event 7", conn.StillConnected(), conn.FirstBreak())
	}
	if reached := len(conn.region.Nodes); reached > 16 {
		t.Fatalf("check reached %d nodes; the small side holds 3", reached)
	}
}

// BenchmarkConnTracker times one verification on a fresh BA graph with
// n = 8192: the boundary of a DASH-healed max-degree deletion (hub) and
// of a batch-healed 128-node disaster ball (ball). The graph does not
// change between iterations, so every iteration repeats the same check.
func BenchmarkConnTracker(b *testing.B) {
	fresh := func() *core.State {
		return core.NewState(gen.BarabasiAlbert(8192, 3, rng.New(1)), rng.New(2))
	}
	bench := func(b *testing.B, s *core.State, witnesses []int) {
		conn := NewConnTracker(s.G, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			conn.AfterBatch(s.G, witnesses, 0)
		}
		if !conn.StillConnected() {
			b.Fatal("healed graph reported as partitioned")
		}
	}
	b.Run("hub", func(b *testing.B) {
		s := fresh()
		hub := NewMaxDegree().Pick(s, nil, nil)
		witnesses := s.G.AppendNeighbors(nil, hub)
		s.DeleteAndHeal(hub, core.DASH{})
		bench(b, s, witnesses)
	})
	b.Run("ball", func(b *testing.B) {
		s := fresh()
		ball := s.G.BFSBall(new(graph.Region), 0, 128)
		// The ball's neighbor lists, members and repeats included:
		// the tracker skips dead and duplicate witnesses itself.
		var witnesses []int
		for _, v := range ball {
			witnesses = s.G.AppendNeighbors(witnesses, v)
		}
		s.DeleteBatchAndHeal(ball)
		bench(b, s, witnesses)
	})
}
