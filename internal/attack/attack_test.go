package attack

import (
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestNames(t *testing.T) {
	tr := gen.CompleteKaryTree(3, 2)
	for _, c := range []struct {
		s    Strategy
		want string
	}{
		{MaxDegree{}, "MaxNode"},
		{NeighborOfMax{}, "NeighborOfMax"},
		{Random{}, "Random"},
		{MinDegree{}, "MinNode"},
		{NewLevelAttack(tr, 1), "LevelAttack"},
	} {
		if c.s.Name() != c.want {
			t.Errorf("name = %q, want %q", c.s.Name(), c.want)
		}
	}
}

func TestMaxDegreePicksHub(t *testing.T) {
	s := core.NewState(gen.Star(6), rng.New(1))
	if v := (MaxDegree{}).Next(s, rng.New(2)); v != 0 {
		t.Errorf("MaxDegree picked %d, want hub 0", v)
	}
}

func TestNeighborOfMaxPicksLeaf(t *testing.T) {
	s := core.NewState(gen.Star(6), rng.New(1))
	r := rng.New(2)
	for i := 0; i < 20; i++ {
		v := (NeighborOfMax{}).Next(s, r)
		if v == 0 || v > 5 {
			t.Fatalf("NMS picked %d, want a leaf", v)
		}
	}
}

func TestNeighborOfMaxIsolatedHub(t *testing.T) {
	s := core.NewState(graph.New(2), rng.New(1))
	if v := (NeighborOfMax{}).Next(s, rng.New(2)); v != 0 {
		t.Errorf("isolated hub: picked %d, want the hub itself", v)
	}
}

func TestMinDegreePicksLeaf(t *testing.T) {
	s := core.NewState(gen.Star(6), rng.New(1))
	if v := (MinDegree{}).Next(s, rng.New(2)); v != 1 {
		t.Errorf("MinDegree picked %d, want lowest-index leaf 1", v)
	}
}

func TestStrategiesReturnNoTargetOnEmpty(t *testing.T) {
	s := core.NewState(graph.New(1), rng.New(1))
	s.Remove(0)
	r := rng.New(2)
	for _, st := range []Strategy{MaxDegree{}, NeighborOfMax{}, Random{}, MinDegree{}} {
		if v := st.Next(s, r); v != NoTarget {
			t.Errorf("%s on empty graph returned %d", st.Name(), v)
		}
	}
}

func TestRandomOnlyPicksAlive(t *testing.T) {
	s := core.NewState(gen.Line(10), rng.New(3))
	r := rng.New(4)
	for i := 0; i < 9; i++ {
		v := (Random{}).Next(s, r)
		if !s.G.Alive(v) {
			t.Fatalf("Random picked dead node %d", v)
		}
		s.DeleteAndHeal(v, core.DASH{})
	}
}

// drive runs strategy st against healer h until the attack finishes or
// the graph empties, returning the peak max-δ seen.
func drive(t *testing.T, s *core.State, st Strategy, h core.Healer, r *rng.RNG) int {
	t.Helper()
	peak := 0
	for s.G.NumAlive() > 0 {
		v := st.Next(s, r)
		if v == NoTarget {
			break
		}
		if !s.G.Alive(v) {
			t.Fatalf("%s picked dead node %d", st.Name(), v)
		}
		s.DeleteAndHeal(v, h)
		if d := s.MaxDelta(); d > peak {
			peak = d
		}
	}
	return peak
}

// Theorem 2: LEVELATTACK against the 2-degree-bounded LineHeal on a
// (M+2)-ary tree must force a degree increase of at least the tree depth.
func TestLevelAttackForcesLowerBoundOnLineHeal(t *testing.T) {
	const m = 2 // LineHeal adds at most 2 edges to any node per round
	for _, depth := range []int{2, 3, 4} {
		tr := gen.CompleteKaryTree(m+2, depth)
		s := core.NewState(tr.G.Clone(), rng.New(7))
		att := NewLevelAttack(tr, m)
		peak := drive(t, s, att, baseline.LineHeal{}, rng.New(8))
		if peak < depth {
			t.Errorf("depth %d: peak δ = %d, want ≥ depth (Theorem 2)", depth, peak)
		}
	}
}

// DASH is not degree-bounded per round, so the same attack cannot push it
// past its global 2·log₂ n guarantee.
func TestLevelAttackCannotBreakDASH(t *testing.T) {
	tr := gen.CompleteKaryTree(4, 4) // 341 nodes
	s := core.NewState(tr.G.Clone(), rng.New(9))
	att := NewLevelAttack(tr, 2)
	peak := drive(t, s, att, core.DASH{}, rng.New(10))
	bound := 2 * math.Log2(float64(tr.G.N()))
	if float64(peak) > bound {
		t.Errorf("DASH peak δ = %d exceeds 2·log₂ n = %.1f", peak, bound)
	}
}

func TestLevelAttackTerminates(t *testing.T) {
	tr := gen.CompleteKaryTree(3, 3)
	s := core.NewState(tr.G.Clone(), rng.New(11))
	att := NewLevelAttack(tr, 1)
	r := rng.New(12)
	steps := 0
	for {
		v := att.Next(s, r)
		if v == NoTarget {
			break
		}
		s.DeleteAndHeal(v, baseline.LineHeal{})
		steps++
		if steps > tr.G.N() {
			t.Fatal("attack issued more deletions than nodes")
		}
	}
	// The root must be gone (it is the last main-phase victim).
	if s.G.Alive(0) {
		t.Error("root survived a completed LevelAttack")
	}
	// Repeated Next after completion stays NoTarget.
	if att.Next(s, r) != NoTarget {
		t.Error("finished attack should keep returning NoTarget")
	}
}

func TestLevelAttackPrunesToArityChildren(t *testing.T) {
	// Against GraphHeal (which reattaches every neighbor), upper-level
	// nodes accumulate extra downward neighbors; the attack must prune
	// them back to M+2 before the kill. We verify the victim's downward
	// degree never exceeds M+3 at deletion time (its own parent link
	// plus M+2 children).
	const m = 2
	tr := gen.CompleteKaryTree(m+2, 3)
	s := core.NewState(tr.G.Clone(), rng.New(13))
	att := NewLevelAttack(tr, m)
	r := rng.New(14)
	for {
		v := att.Next(s, r)
		if v == NoTarget {
			break
		}
		down := 0
		for _, u := range s.G.Neighbors(v) {
			if tr.Level[u] > tr.Level[v] {
				down++
			}
		}
		if down > m+2 {
			t.Fatalf("node %d deleted with %d downward neighbors (> M+2)", v, down)
		}
		s.DeleteAndHeal(v, baseline.GraphHeal{})
	}
}

func TestLimitedExhaustsEarly(t *testing.T) {
	g := gen.BarabasiAlbert(32, 2, rng.New(21))
	s := core.NewState(g, rng.New(22))
	att := &Limited{Inner: Random{}, Budget: 5}
	r := rng.New(23)
	victims := 0
	for {
		v := att.Next(s, r)
		if v == NoTarget {
			break
		}
		victims++
		s.DeleteAndHeal(v, core.DASH{})
	}
	if victims != 5 {
		t.Fatalf("Limited allowed %d victims, budget was 5", victims)
	}
	if s.G.NumAlive() != 32-5 {
		t.Fatalf("%d alive after exhaustion, want 27", s.G.NumAlive())
	}
	// Exhaustion is permanent.
	if v := att.Next(s, r); v != NoTarget {
		t.Fatalf("exhausted Limited returned %d", v)
	}
	if name := att.Name(); name == "" || name == (Random{}).Name() {
		t.Fatalf("Limited name %q should mark the budget", name)
	}
}

// aliveListRandom and aliveListMinDegree are Random.Next and
// MinDegree.Next as they were when both materialized G.AliveNodes() on
// every pick: the references the allocation-free versions are pinned to.
func aliveListRandom(s *core.State, r *rng.RNG) int {
	alive := s.G.AliveNodes()
	if len(alive) == 0 {
		return NoTarget
	}
	return alive[r.Intn(len(alive))]
}

func aliveListMinDegree(s *core.State) int {
	best, bestDeg := NoTarget, int(^uint(0)>>1)
	for _, v := range s.G.AliveNodes() {
		if d := s.G.Degree(v); d < bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}

// TestRandomAndMinDegreeMatchAliveList pins Random and MinDegree to the
// alive-list references pick for pick, on graphs whose alive set has
// holes (DASH-healed deletions) and grows (joins): Random must make the
// same RNG draws and name the same victim, and MinDegree the same node.
func TestRandomAndMinDegreeMatchAliveList(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		s := core.NewState(gen.BarabasiAlbert(150, 3, rng.New(seed)), rng.New(seed+10))
		got, want, opR := rng.New(seed+20), rng.New(seed+20), rng.New(seed+30)
		for step := 0; s.G.NumAlive() > 0; step++ {
			if a, b := (MinDegree{}).Next(s, nil), aliveListMinDegree(s); a != b {
				t.Fatalf("seed %d step %d: MinDegree picked %d, reference %d", seed, step, a, b)
			}
			v := (Random{}).Next(s, got)
			if ref := aliveListRandom(s, want); v != ref {
				t.Fatalf("seed %d step %d: Random picked %d, reference %d", seed, step, v, ref)
			}
			if step%4 == 3 {
				s.Join([]int{v}, opR)
				continue
			}
			s.DeleteAndHeal(v, core.DASH{})
		}
		if (MinDegree{}).Next(s, nil) != NoTarget || (Random{}).Next(s, got) != NoTarget {
			t.Fatalf("seed %d: empty graph did not return NoTarget", seed)
		}
	}
}
