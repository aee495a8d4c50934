package repro

// The healer-registry invariant suite: every healer registered in
// AllHealers must pass these table-driven properties, so adding the
// next strategy (e.g. the Hayashi et al. resource-allocation healers,
// arXiv:2008.00651) is a registry entry away from full coverage. The
// per-healer expectation overrides below are the documented exceptions
// (NoHeal is the no-repair control), not escape hatches.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// preservesConnectivity reports whether the healer is supposed to keep
// the surviving graph connected after every single-node heal. NoHeal
// is the control that deliberately does not.
func preservesConnectivity(h Healer) bool { return h.Name() != "NoHeal" }

// TestRegistryConnectivityAfterEveryHeal kills half of a BA graph one
// node at a time through every registered healer and demands the
// survivors stay connected after every heal.
func TestRegistryConnectivityAfterEveryHeal(t *testing.T) {
	for _, h := range AllHealers() {
		h := h
		t.Run(h.Name(), func(t *testing.T) {
			t.Parallel()
			inst := core.InstanceFor(h)
			r := rng.New(17)
			g := gen.BarabasiAlbert(128, 3, rng.New(18))
			s := core.NewState(g, rng.New(19))
			for i := 0; i < 64; i++ {
				alive := g.AliveNodes()
				v := alive[r.Intn(len(alive))]
				s.DeleteAndHeal(v, inst)
				if g.Connected() != preservesConnectivity(h) && preservesConnectivity(h) {
					t.Fatalf("disconnected after heal %d (node %d)", i, v)
				}
			}
		})
	}
}

// TestRegistryDeterminismAcrossWorkers runs the same experiment cell
// serially and with concurrent trial workers and demands bit-identical
// aggregates — the contract that lets every table fan out across CPUs.
// This is what core.InstanceFor buys for stateful healers: each trial
// gets its own bookkeeping, so worker interleaving cannot leak state.
func TestRegistryDeterminismAcrossWorkers(t *testing.T) {
	for _, h := range AllHealers() {
		h := h
		t.Run(h.Name(), func(t *testing.T) {
			t.Parallel()
			cell := func(workers int) Result {
				return Run(Config{
					NewGraph:          BAGen(64, 3),
					NewAttack:         RandomAttack,
					Healer:            h,
					Trials:            4,
					Seed:              23,
					Rounds:            32,
					StretchEvery:      8,
					TrackConnectivity: true,
					Workers:           workers,
				})
			}
			// Compare the full rendering, not reflect.DeepEqual: a
			// shattered graph (NoHeal) yields NaN stretch summaries,
			// and NaN != NaN would fail even identical runs.
			if a, b := fmt.Sprintf("%#v", cell(1)), fmt.Sprintf("%#v", cell(3)); a != b {
				t.Fatalf("results differ between 1 and 3 workers:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestRegistryDeadVictimNoOp hands every healer a deletion with no
// surviving neighbors (an isolated node's death) and demands a silent
// no-op: no edges added, no panic.
func TestRegistryDeadVictimNoOp(t *testing.T) {
	for _, h := range AllHealers() {
		h := h
		t.Run(h.Name(), func(t *testing.T) {
			g := gen.Star(5) // center 0, leaves 1..4
			v := g.AddNode() // isolated node
			s := core.NewState(g, rng.New(3))
			hr := s.DeleteAndHeal(v, core.InstanceFor(h))
			if len(hr.Added) != 0 {
				t.Fatalf("healing an isolated death added edges: %+v", hr.Added)
			}
		})
	}
}

// TestRegistryJoinAfterKill interleaves kills and joins and then kills
// the newly joined nodes themselves: healer bookkeeping must follow
// the graph as it grows past its initial node range, and connectivity
// must survive the whole churn.
func TestRegistryJoinAfterKill(t *testing.T) {
	for _, h := range AllHealers() {
		if !preservesConnectivity(h) {
			continue
		}
		h := h
		t.Run(h.Name(), func(t *testing.T) {
			t.Parallel()
			inst := core.InstanceFor(h)
			r := rng.New(29)
			g := gen.BarabasiAlbert(64, 3, rng.New(30))
			s := core.NewState(g, rng.New(31))
			var joined []int
			for i := 0; i < 60; i++ {
				switch {
				case i%3 == 1: // join, attached to two live nodes
					alive := g.AliveNodes()
					v := s.Join([]int{alive[r.Intn(len(alive))], alive[r.Intn(len(alive))]}, r)
					joined = append(joined, v)
				case i%3 == 2 && len(joined) > 0: // kill a joined node
					v := joined[len(joined)-1]
					joined = joined[:len(joined)-1]
					if g.Alive(v) {
						s.DeleteAndHeal(v, inst)
					}
				default: // kill a random survivor
					alive := g.AliveNodes()
					v := alive[r.Intn(len(alive))]
					s.DeleteAndHeal(v, inst)
				}
				if !g.Connected() {
					t.Fatalf("disconnected after op %d", i)
				}
			}
		})
	}
}

// TestRegistryBatchKill routes a simultaneous ball deletion through
// DeleteBatchAndHealWith for every healer: BatchHealer implementations
// heal with their own rule, everyone else falls back to batch-DASH,
// and the survivors stay connected either way.
func TestRegistryBatchKill(t *testing.T) {
	for _, h := range AllHealers() {
		if !preservesConnectivity(h) {
			continue // NoHeal's prior damage makes connectivity moot
		}
		h := h
		t.Run(h.Name(), func(t *testing.T) {
			t.Parallel()
			inst := core.InstanceFor(h)
			g := gen.BarabasiAlbert(96, 3, rng.New(41))
			s := core.NewState(g, rng.New(42))
			batch := []int{0}
			for _, v := range g.Neighbors(0) {
				batch = append(batch, int(v))
			}
			s.DeleteBatchAndHealWith(batch, inst)
			if !g.Connected() {
				t.Fatalf("disconnected after simultaneous kill of %d nodes", len(batch))
			}
		})
	}
}

// TestRegistryShardedSupport pins the concurrent-commit compatibility
// matrix: exactly DASH and SDASH support sharded commit, and the
// scenario engine rejects — loudly, not via silent serial fallback —
// any other healer when Shards is requested.
func TestRegistryShardedSupport(t *testing.T) {
	for _, h := range AllHealers() {
		want := h.Name() == "DASH" || h.Name() == "SDASH"
		if got := core.SupportsSharded(h); got != want {
			t.Errorf("SupportsSharded(%s) = %v, want %v", h.Name(), got, want)
		}
		if want {
			continue
		}
		sc, err := scenario.Preset("sustained-churn", 64)
		if err != nil {
			t.Fatal(err)
		}
		_, err = scenario.Run(scenario.Config{
			NewGraph: BAGen(64, 3),
			Schedule: sc,
			Healer:   h,
			Trials:   1,
			Seed:     1,
			Shards:   2,
		})
		if err == nil {
			t.Errorf("scenario.Run accepted Shards > 0 with %s; want explicit error", h.Name())
		}
	}
}

// TestRegistryPerStateInstancing pins which healers declare per-State
// bookkeeping and that InstanceFor returns fresh instances for them
// (and pass-through values for everyone else).
func TestRegistryPerStateInstancing(t *testing.T) {
	stateful := map[string]bool{"ForgivingGraph": true}
	for _, h := range AllHealers() {
		_, isPS := h.(core.PerState)
		if isPS != stateful[h.Name()] {
			t.Errorf("%s: PerState = %v, want %v", h.Name(), isPS, stateful[h.Name()])
		}
		inst := core.InstanceFor(h)
		if isPS {
			if inst == h {
				t.Errorf("%s: InstanceFor returned the shared prototype", h.Name())
			}
		} else if inst != h {
			t.Errorf("%s: InstanceFor should pass stateless healers through", h.Name())
		}
	}
}

// TestHealerByNameCoversRegistry makes the name round-trip total:
// every registered healer resolves by its own name, and unknown names
// are errors (the CLI usage-error path, never a silent DASH fallback).
func TestHealerByNameCoversRegistry(t *testing.T) {
	for _, h := range AllHealers() {
		got, err := HealerByName(h.Name())
		if err != nil || got.Name() != h.Name() {
			t.Errorf("HealerByName(%q) = %v, %v", h.Name(), got, err)
		}
	}
	if _, err := HealerByName("NotARealHealer"); err == nil {
		t.Error("HealerByName accepted an unknown name")
	}
}
