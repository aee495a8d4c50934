package dist

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// pickBatch draws a victim set from the alive nodes of g: either a
// uniform subset (typically many singleton clusters) or a BFS ball
// around a random epicenter (one connected cluster), so both cluster
// shapes of the batch protocol get exercised.
func pickBatch(g *graph.Graph, size int, r *rng.RNG) []int {
	alive := g.AliveNodes()
	if len(alive) == 0 {
		return nil
	}
	if size > len(alive) {
		size = len(alive)
	}
	if r.Intn(2) == 0 {
		// Uniform subset without replacement.
		perm := append([]int(nil), alive...)
		for i := 0; i < size; i++ {
			j := i + r.Intn(len(perm)-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		return perm[:size]
	}
	// BFS ball.
	return g.BFSBall(new(graph.Marks), alive[r.Intn(len(alive))], size)
}

// coreClusters is the sequential reference for a batch's dead clusters:
// core.ClusterDeletions on a throwaway copy of g, keyed by each
// cluster's smallest member, with the surviving G neighbors of its
// members as the cluster's candidates. A cluster without candidates
// heals nothing and is left out, exactly as the distributed epoch
// records and heals them.
func coreClusters(g *graph.Graph, batch []int) map[int]map[int]struct{} {
	probe := core.NewState(g.Clone(), rng.New(1))
	out := make(map[int]map[int]struct{})
	for _, cl := range core.ClusterDeletions(probe.RemoveBatch(batch)) {
		root := cl[0].Node
		cands := make(map[int]struct{})
		for _, d := range cl {
			root = min(root, d.Node)
			for _, v := range d.GNbrs {
				if probe.G.Alive(v) {
					cands[v] = struct{}{}
				}
			}
		}
		if len(cands) > 0 {
			out[root] = cands
		}
	}
	return out
}

func assertStateEqual(t *testing.T, round int, nw *Network, seq *core.State) {
	t.Helper()
	if err := nw.Diverges(seq); err != nil {
		t.Fatalf("round %d: %v", round, err)
	}
}

// TestBatchEquivalenceWithSequential drives mixed epochs — batch kills
// of both shapes, single kills, joins — through the distributed network
// and core.DeleteBatchAndHeal / DeleteAndHeal / Join in lockstep,
// demanding exact G/G′/label/δ equality and exact Lemma 9 flood
// accounting after every round. Batches may legitimately
// disconnect the survivors (footnote 1's precondition is on the batch's
// NoN graph), so unlike the single-kill equivalence test this one does
// not assert connectivity.
func TestBatchEquivalenceWithSequential(t *testing.T) {
	kinds := []HealerKind{HealDASH, HealSDASH}
	for _, k := range kinds {
		for seed := uint64(1); seed <= 3; seed++ {
			k, seed := k, seed
			t.Run(k.Healer().Name()+"/"+string(rune('0'+seed)), func(t *testing.T) {
				t.Parallel()
				runBatchEquivalence(t, k, 96, seed)
			})
		}
	}
}

func runBatchEquivalence(t *testing.T, kind HealerKind, n int, seed uint64) {
	master := rng.New(seed)
	g := gen.BarabasiAlbert(n, 3, master.Split())
	seq := core.NewState(g.Clone(), master.Split())
	ids := InitIDs(seq)
	nw := NewKind(g.Clone(), ids, kind)
	defer nw.Close()

	opR := master.Split()
	round := 0
	for seq.G.NumAlive() > 8 {
		round++
		switch opR.Intn(4) {
		case 0, 1: // batch kill, 2..9 victims
			batch := pickBatch(seq.G, 2+opR.Intn(8), opR)
			roots := slices.Sorted(maps.Keys(coreClusters(seq.G, batch)))
			seq.DeleteBatchAndHeal(batch)
			mustRun(t, nw, Op{Kind: OpBatch, Batch: batch})
			got := make([]int, 0, len(roots))
			for _, c := range nw.lastClusters {
				got = append(got, c.root)
			}
			slices.Sort(got)
			if !slices.Equal(got, roots) {
				t.Fatalf("round %d: protocol found clusters %v, core expects %v", round, got, roots)
			}
		case 2: // single kill
			alive := seq.G.AliveNodes()
			x := alive[opR.Intn(len(alive))]
			seq.DeleteAndHeal(x, kind.Healer())
			mustRun(t, nw, Op{Kind: OpKill, Victim: x})
		case 3: // join to up to 3 distinct targets
			alive := seq.G.AliveNodes()
			want := 1 + opR.Intn(3)
			attach := make([]int, 0, want)
			for len(attach) < want && len(attach) < len(alive) {
				u := alive[opR.Intn(len(alive))]
				dup := false
				for _, w := range attach {
					dup = dup || w == u
				}
				if !dup {
					attach = append(attach, u)
				}
			}
			v := seq.Join(attach, opR)
			mustRun(t, nw, Op{Kind: OpJoin, NewID: v, Attach: attach, InitID: seq.InitID(v)})
		}
		assertStateEqual(t, round, nw, seq)
	}
}

// TestBatchKillClusterMatchesCore pins the message-built clustering
// against core.ClusterDeletions on the identical batch: the union-find
// over deletion snapshots and the distributed min-index relaxation must
// partition the dead set identically.
func TestBatchKillClusterMatchesCore(t *testing.T) {
	const n, seed = 128, 11
	master := rng.New(seed)
	g := gen.BarabasiAlbert(n, 3, master.Split())
	seq := core.NewState(g.Clone(), master.Split())
	ids := InitIDs(seq)
	nw := NewKind(g.Clone(), ids, HealDASH)
	defer nw.Close()

	opR := master.Split()
	for trial := 0; trial < 6; trial++ {
		batch := pickBatch(seq.G, 3+opR.Intn(10), opR)
		// Core-side clustering from the deletion snapshots, on a clone so
		// the shared run stays in lockstep.
		wantRoots := coreClusters(seq.G, batch)

		seq.DeleteBatchAndHeal(batch)
		mustRun(t, nw, Op{Kind: OpBatch, Batch: batch})
		if len(nw.lastClusters) != len(wantRoots) {
			t.Fatalf("trial %d: protocol healed %d clusters, core built %d",
				trial, len(nw.lastClusters), len(wantRoots))
		}
		for _, c := range nw.lastClusters {
			if _, ok := wantRoots[c.root]; !ok {
				t.Fatalf("trial %d: protocol root %d not a core cluster root %v", trial, c.root, wantRoots)
			}
		}
		assertStateEqual(t, trial, nw, seq)
	}
}

// TestBatchKillEdgeCases covers the degenerate shapes: a singleton
// batch, duplicate victims, and killing every remaining node at once
// (no survivors, so no cluster is healed and the network just empties).
func TestBatchKillEdgeCases(t *testing.T) {
	const n, seed = 48, 5
	master := rng.New(seed)
	g := gen.BarabasiAlbert(n, 3, master.Split())
	seq := core.NewState(g.Clone(), master.Split())
	ids := InitIDs(seq)
	nw := NewKind(g.Clone(), ids, HealDASH)
	defer nw.Close()

	// Singleton batch with duplicates.
	seq.DeleteBatchAndHeal([]int{3, 3, 3})
	mustRun(t, nw, Op{Kind: OpBatch, Batch: []int{3, 3, 3}})
	assertStateEqual(t, 1, nw, seq)

	// Adjacent pair (one cluster with two members).
	var pair []int
	for _, v := range seq.G.AliveNodes() {
		nbrs := seq.G.Neighbors(v)
		if len(nbrs) > 0 {
			pair = []int{v, int(nbrs[0])}
			break
		}
	}
	seq.DeleteBatchAndHeal(pair)
	mustRun(t, nw, Op{Kind: OpBatch, Batch: pair})
	assertStateEqual(t, 2, nw, seq)

	// Apocalypse: every remaining node in one batch.
	rest := seq.G.AliveNodes()
	seq.DeleteBatchAndHeal(rest)
	mustRun(t, nw, Op{Kind: OpBatch, Batch: rest})
	snap := nw.Snapshot()
	if snap.G.NumAlive() != 0 || seq.G.NumAlive() != 0 {
		t.Fatalf("apocalypse left %d/%d alive", snap.G.NumAlive(), seq.G.NumAlive())
	}
	if rounds := seq.Rounds(); rounds != 3 {
		t.Fatalf("sequential rounds = %d, want 3", rounds)
	}
	if _, _, rounds := nw.FloodStats(); rounds != 3 {
		t.Fatalf("distributed rounds = %d, want 3", rounds)
	}
}
