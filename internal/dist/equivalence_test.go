package dist

import (
	"math"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

// testTimeout is the per-round quiescence watchdog used throughout the
// tests: generous enough for -race on a loaded machine, small enough
// that a deadlocked protocol fails the suite quickly with a dump.
const testTimeout = 20 * time.Second

// TestEquivalenceWithSequential is the central correctness test: the
// distributed protocol and the sequential reference engine run the same
// attack on the same seeded topology with the same initial IDs, and
// after EVERY healing round the distributed snapshot must match the
// sequential state exactly — topology G, healing forest G′, every
// component label and δ, and the flood accounting — while preserving
// connectivity and (for DASH) keeping every δ within Theorem 1's
// 2·log₂ n bound.
func TestEquivalenceWithSequential(t *testing.T) {
	kinds := []HealerKind{HealDASH, HealSDASH}
	attacks := []struct {
		name string
		make func() attack.Strategy
	}{
		{"NeighborOfMax", func() attack.Strategy { return attack.NeighborOfMax{} }},
		{"MaxNode", func() attack.Strategy { return attack.MaxDegree{} }},
		{"Random", func() attack.Strategy { return attack.Random{} }},
	}
	topologies := []struct {
		name string
		n    int
		seed uint64
	}{
		{"BA64s1", 64, 1},
		{"BA64s2", 64, 2},
		{"BA96s3", 96, 3},
		{"BA128s4", 128, 4},
	}

	for _, k := range kinds {
		for _, top := range topologies {
			for _, att := range attacks {
				name := k.Healer().Name() + "/" + top.name + "/" + att.name
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					runEquivalence(t, k, top.n, top.seed, att.make())
				})
			}
		}
	}
}

func runEquivalence(t *testing.T, kind HealerKind, n int, seed uint64, att attack.Strategy) {
	master := rng.New(seed)
	g := gen.BarabasiAlbert(n, 3, master.Split())
	if !g.Connected() {
		t.Fatalf("seed graph not connected")
	}
	seq := core.NewState(g.Clone(), master.Split())
	ids := InitIDs(seq)
	nw := NewKind(g.Clone(), ids, kind)
	defer nw.Close()

	bound := 2 * math.Log2(float64(n))
	attR := master.Split()
	for round := 1; seq.G.NumAlive() > 0; round++ {
		x := att.Next(seq, attR)
		if x == attack.NoTarget {
			break
		}
		seq.DeleteAndHeal(x, kind.Healer())
		if err := nw.KillAsync(x).Wait(testTimeout); err != nil {
			t.Fatalf("round %d (kill %d): %v", round, x, err)
		}

		// The hop-relaxing wave makes the Lemma 9 depth accounting
		// exact: the distributed stats must equal the sequential BFS's,
		// not merely approximate them.
		if err := nw.Diverges(seq); err != nil {
			t.Fatalf("round %d (kill %d): %v", round, x, err)
		}
		if !seq.G.Connected() {
			t.Fatalf("round %d (kill %d): healed network disconnected (%d components)",
				round, x, seq.G.NumComponents())
		}
		for _, v := range seq.G.AliveNodes() {
			if d := seq.Delta(v); kind == HealDASH && float64(d) > bound {
				t.Fatalf("round %d: node %d δ=%d exceeds 2·log₂ %d = %.1f", round, v, d, n, bound)
			}
		}
	}
}

// TestLabelNotificationsMatchSequential pins the Lemma 8 accounting: the
// distributed label-notification traffic (Snapshot.MsgSent) must equal
// the sequential engine's per-node msgSent, because the flood only
// starts after the reconstruction tree is fully wired and therefore
// every adopter notifies exactly its post-heal G neighborhood.
func TestLabelNotificationsMatchSequential(t *testing.T) {
	const n, seed = 96, 7
	master := rng.New(seed)
	g := gen.BarabasiAlbert(n, 3, master.Split())
	seq := core.NewState(g.Clone(), master.Split())
	ids := InitIDs(seq)
	nw := New(g.Clone(), ids)
	defer nw.Close()

	att := attack.NeighborOfMax{}
	attR := master.Split()
	for seq.G.NumAlive() > 0 {
		x := att.Next(seq, attR)
		if x == attack.NoTarget {
			break
		}
		seq.DeleteAndHeal(x, core.DASH{})
		if err := nw.KillAsync(x).Wait(testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	snap := nw.Snapshot()
	var distTotal, seqTotal int64
	for v := 0; v < n; v++ {
		distTotal += snap.MsgSent[v]
	}
	// Sequential Messages(v) is sent+received; summed over all nodes it
	// double-counts each notification, so halve it.
	for v := 0; v < n; v++ {
		seqTotal += seq.Messages(v)
	}
	seqTotal /= 2
	if distTotal != seqTotal {
		t.Fatalf("distributed sent %d label notifications, sequential %d", distTotal, seqTotal)
	}
}
