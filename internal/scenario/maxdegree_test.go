package scenario

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// scanMaxDegreeNode is the reference MaxNode pick: the naive O(n) scan
// for the alive node with the largest degree, smallest index on ties.
func scanMaxDegreeNode(g *graph.Graph) int {
	best, bestDeg := -1, -1
	for v := 0; v < g.N(); v++ {
		if g.Alive(v) && g.Degree(v) > bestDeg {
			best, bestDeg = v, g.Degree(v)
		}
	}
	return best
}

// TestMaxDegreeIndexMatchesNaiveScan is the end-to-end property test for
// the graph-owned degree index: across seeded churn sequences — MaxNode
// kills with DASH healing, random joins, and random batch kills —
// G.MaxDegreeNode must equal the naive O(n) scan before every event. The
// index hears about rises only through the AddEdge calls inside core's
// heals and joins; drops from deletions reach it lazily.
func TestMaxDegreeIndexMatchesNaiveScan(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(string(rune('0'+seed)), func(t *testing.T) {
			t.Parallel()
			master := rng.New(seed)
			g := gen.BarabasiAlbert(128, 3, master.Split())
			s := core.NewState(g, master.Split())
			opR := master.Split()

			for step := 0; s.G.NumAlive() > 0; step++ {
				want := scanMaxDegreeNode(s.G)
				got := s.G.MaxDegreeNode()
				if got != want {
					t.Fatalf("step %d: index says %d (deg %d), naive scan %d (deg %d)",
						step, got, s.G.Degree(got), want, s.G.Degree(want))
				}
				switch opR.Intn(4) {
				case 0, 1: // MaxNode kill + DASH heal
					s.DeleteAndHeal(want, core.DASH{})
				case 2: // join to up to 3 random targets
					alive := s.G.AliveNodes()
					k := 1 + opR.Intn(3)
					if k > len(alive) {
						k = len(alive)
					}
					attachTo := make([]int, 0, k)
					for len(attachTo) < k {
						u := alive[opR.Intn(len(alive))]
						dup := false
						for _, w := range attachTo {
							dup = dup || w == u
						}
						if !dup {
							attachTo = append(attachTo, u)
						}
					}
					s.Join(attachTo, opR)
				case 3: // batch kill of up to 5 random victims
					alive := s.G.AliveNodes()
					k := 1 + opR.Intn(5)
					if k > len(alive) {
						k = len(alive)
					}
					batch := make([]int, 0, k)
					seen := map[int]bool{}
					for len(batch) < k {
						v := alive[opR.Intn(len(alive))]
						if !seen[v] {
							seen[v] = true
							batch = append(batch, v)
						}
					}
					s.DeleteBatchAndHeal(batch)
				}
			}
			if got := s.G.MaxDegreeNode(); got != -1 {
				t.Fatalf("empty graph: index says %d, want -1", got)
			}
		})
	}
}

// TestMaxDegreePolicyMatchesFromAttack pins the end-to-end contract:
// running the same schedule with the MaxDegree policy and with the
// FromAttack adapter around a naive-scan strategy must produce identical
// trial results — same victims, same heals, same everything.
func TestMaxDegreePolicyMatchesFromAttack(t *testing.T) {
	sc := Schedule{Name: "mixed", Phases: []Phase{
		Attrition(20),
		Growth(8, 3),
		Disaster(2, 5),
		Churn(30, 3, 2),
		Attrition(20),
	}}
	base := Config{
		NewGraph:          func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(96, 3, r) },
		Schedule:          sc,
		Healer:            core.DASH{},
		Trials:            3,
		Seed:              42,
		TrackConnectivity: true,
	}

	fast := base
	fast.NewVictim = NewMaxDegree
	naive := base
	naive.NewVictim = func() VictimPolicy { return FromAttack{S: scanMaxNode{}} }

	fastRes, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	naiveRes, err := Run(naive)
	if err != nil {
		t.Fatal(err)
	}
	if fastRes.VictimName != naiveRes.VictimName {
		t.Fatalf("policy names differ: %q vs %q", fastRes.VictimName, naiveRes.VictimName)
	}
	for i := range fastRes.Trials {
		f, n := fastRes.Trials[i], naiveRes.Trials[i]
		if !reflect.DeepEqual(f, n) {
			t.Fatalf("trial %d diverged:\nindexed: %+v\nnaive:   %+v", i, f, n)
		}
	}
}

// scanMaxNode is attack.MaxDegree with the reference scan in place of
// G.MaxDegreeNode.
type scanMaxNode struct{}

func (scanMaxNode) Name() string { return "MaxNode" }

func (scanMaxNode) Next(s *core.State, _ *rng.RNG) int { return scanMaxDegreeNode(s.G) }
