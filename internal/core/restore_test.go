package core

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// The headline property: a restored state makes bit-identical healing
// decisions. Run a mixed workload, snapshot mid-stream, restore, then
// drive the original and the restored state through the identical
// remaining operations and demand exact G/G′/label/δ agreement.
func TestRestoreResumesDecisionIdentically(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		master := rng.New(seed)
		s := NewState(gen.BarabasiAlbert(120, 3, master.Split()), master.Split())
		opR := master.Split()
		step := func(st *State, r *rng.RNG) {
			switch r.Intn(4) {
			case 0:
				alive := st.G.AliveNodes()
				st.Join([]int{alive[r.Intn(len(alive))]}, r)
			case 1:
				ball := st.G.BFSBall(new(graph.Region), st.G.AliveNodes()[r.Intn(st.G.NumAlive())], 4)
				st.DeleteBatchAndHeal(ball)
			default:
				st.DeleteAndHeal(st.G.AliveNodes()[r.Intn(st.G.NumAlive())], DASH{})
			}
		}
		for i := 0; i < 30; i++ {
			step(s, opR)
		}

		g, gp, initID, curID, initDeg := s.SnapshotData()
		r2, err := Restore(g, gp, initID, curID, initDeg)
		if err != nil {
			t.Fatalf("seed %d: restore of a live snapshot failed: %v", seed, err)
		}
		// Identical op streams need identical randomness: split two
		// equal-seeded generators.
		ra, rb := rng.New(seed+99), rng.New(seed+99)
		for i := 0; i < 30 && s.G.NumAlive() > 4; i++ {
			step(s, ra)
			step(r2, rb)
		}
		if !s.G.Equal(r2.G) || !s.Gp.Equal(r2.Gp) {
			t.Fatalf("seed %d: topology diverged after restore", seed)
		}
		for _, v := range s.G.AliveNodes() {
			if s.CurID(v) != r2.CurID(v) {
				t.Fatalf("seed %d: node %d label %d vs %d", seed, v, s.CurID(v), r2.CurID(v))
			}
			if s.Delta(v) != r2.Delta(v) {
				t.Fatalf("seed %d: node %d δ %d vs %d", seed, v, s.Delta(v), r2.Delta(v))
			}
		}
	}
}

func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	master := rng.New(3)
	s := NewState(gen.BarabasiAlbert(40, 3, master.Split()), master.Split())
	for i := 0; i < 10; i++ {
		s.DeleteAndHeal(s.G.AliveNodes()[i], DASH{})
	}
	fresh := func() (args [5]any) {
		g, gp, initID, curID, initDeg := s.SnapshotData()
		return [5]any{g, gp, initID, curID, initDeg}
	}
	cases := map[string]func() [5]any{
		"label above initial ID": func() [5]any {
			a := fresh()
			curID := a[3].([]uint64)
			v := s.G.AliveNodes()[0]
			curID[v] = s.InitID(v) + 1
			return a
		},
		"duplicate initial ID": func() [5]any {
			a := fresh()
			initID := a[2].([]uint64)
			alive := s.G.AliveNodes()
			initID[alive[0]] = initID[alive[1]]
			// Keep labels consistent so only the duplication can trip.
			curID := a[3].([]uint64)
			if curID[alive[0]] > initID[alive[0]] {
				curID[alive[0]] = initID[alive[0]]
			}
			return a
		},
		"split label within a G′ component": func() [5]any {
			a := fresh()
			gp := a[1].(*graph.Graph)
			curID := a[3].([]uint64)
			for _, e := range gp.Edges() {
				u, v := e[0], e[1]
				if curID[u] == curID[v] && curID[v] > 0 {
					curID[v]--
					return a
				}
			}
			t.Skip("no G′ edge to corrupt")
			return a
		},
		"G′ not a subgraph of G": func() [5]any {
			a := fresh()
			g, gp := a[0].(*graph.Graph), a[1].(*graph.Graph)
			alive := g.AliveNodes()
			for _, u := range alive {
				for _, v := range alive {
					if u < v && !g.HasEdge(u, v) && !gp.HasEdge(u, v) {
						gp.AddEdge(u, v)
						return a
					}
				}
			}
			t.Skip("graph too dense to corrupt")
			return a
		},
	}
	for name, corrupt := range cases {
		a := corrupt()
		_, err := Restore(a[0].(*graph.Graph), a[1].(*graph.Graph),
			a[2].([]uint64), a[3].([]uint64), a[4].([]int))
		if err == nil {
			t.Errorf("%s: corrupt snapshot restored without error", name)
		} else if !strings.Contains(err.Error(), "core: restore") {
			t.Errorf("%s: error %v lacks restore prefix", name, err)
		}
	}
}
