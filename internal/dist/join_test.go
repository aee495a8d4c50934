package dist

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

// TestJoinMatchesSequential interleaves joins with adversarial deletions
// and checks the distributed network stays bit-identical to the
// sequential engine after every operation — including the NoN-table
// consistency that later healing rounds rely on (a stale table would
// elect the wrong leader and diverge the topology).
func TestJoinMatchesSequential(t *testing.T) {
	const n, seed = 64, 11
	master := rng.New(seed)
	g := gen.BarabasiAlbert(n, 3, master.Split())
	seq := core.NewState(g.Clone(), master.Split())
	ids := InitIDs(seq)
	nw := NewKind(g.Clone(), ids, HealDASH)
	defer nw.Close()

	att := attack.NeighborOfMax{}
	attR := master.Split()
	joinR := master.Split()
	idR := master.Split()

	check := func(stage string) {
		t.Helper()
		if err := nw.Diverges(seq); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}

	for step := 0; step < 40; step++ {
		if step%3 == 2 {
			// Join to up to 3 random alive nodes.
			alive := seq.G.AliveNodes()
			k := 3
			if k > len(alive) {
				k = len(alive)
			}
			attach := make([]int, 0, k)
			for _, i := range joinR.Perm(len(alive))[:k] {
				attach = append(attach, alive[i])
			}
			// Drive the sequential join with a dedicated generator so we
			// can hand the distributed side the same initial ID.
			// Issue fails unless the join lands in slot v.
			v := seq.Join(attach, idR)
			mustRun(t, nw, Op{Kind: OpJoin, NewID: v, Attach: attach, InitID: seq.InitID(v)})
			check("join")
		} else {
			x := att.Next(seq, attR)
			if x == attack.NoTarget {
				break
			}
			seq.DeleteAndHeal(x, core.DASH{})
			mustRun(t, nw, Op{Kind: OpKill, Victim: x})
			check("kill")
		}
	}
	if seq.Joined() == 0 {
		t.Fatal("test never joined a node")
	}
}

// TestJoinIsolatedAndDuplicates pins the edge cases: an empty attach set
// (isolated newcomer) quiesces trivially, and duplicate attach targets
// collapse to one edge, exactly like core.State.Join.
func TestJoinIsolatedAndDuplicates(t *testing.T) {
	const n = 8
	master := rng.New(5)
	g := gen.Ring(n)
	seq := core.NewState(g.Clone(), master.Split())
	ids := InitIDs(seq)
	nw := NewKind(g.Clone(), ids, HealDASH)
	defer nw.Close()
	idR := master.Split()

	// Issue fails unless each join lands in the sequential slot.
	v1 := seq.Join(nil, idR)
	mustRun(t, nw, Op{Kind: OpJoin, NewID: v1, InitID: seq.InitID(v1)})
	v2 := seq.Join([]int{3, 3, 4}, idR)
	mustRun(t, nw, Op{Kind: OpJoin, NewID: v2, Attach: []int{3, 3, 4}, InitID: seq.InitID(v2)})
	snap := nw.Snapshot()
	if !snap.G.Equal(seq.G) || !snap.Gp.Equal(seq.Gp) {
		t.Fatal("topology diverged after edge-case joins")
	}
	if snap.Delta[v2] != seq.Delta(v2) || seq.Delta(v2) != 0 {
		t.Fatalf("newcomer δ: dist %d, sequential %d, want 0", snap.Delta[v2], seq.Delta(v2))
	}
	if got := snap.G.Degree(v2); got != 2 {
		t.Fatalf("duplicate attach produced degree %d, want 2", got)
	}
}
