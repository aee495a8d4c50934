package graph

import (
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// healedRing returns G and G′ for a 12-ring after DASH healed the kill
// of node 3: G gains the bridge 2–4, and G′ holds it as its one edge.
func healedRing() (g, gp *Graph) {
	g, gp = New(12), New(12)
	for v := 0; v < 12; v++ {
		g.AddEdge(v, (v+1)%12)
	}
	g.RemoveNode(3)
	gp.RemoveNode(3)
	g.AddEdge(2, 4)
	gp.AddEdge(2, 4)
	return g, gp
}

func sortedNodes(r *Region) []int {
	out := make([]int, len(r.Nodes))
	for i, v := range r.Nodes {
		out[i] = int(v)
	}
	slices.Sort(out)
	return out
}

// TestRegionGrow pins the conflict-region definition the sharded
// scheduler and the distributed pipeline share: seeds closed under G′
// adjacency, capped, with an early exit at an owned node.
func TestRegionGrow(t *testing.T) {
	g, gp := healedRing()
	killSeeds := func(x int) []int { return g.AppendNeighbors([]int{x}, x) }
	batchSeeds := func(xs ...int) []int {
		seeds := append([]int(nil), xs...)
		for _, x := range xs {
			seeds = g.AppendNeighbors(seeds, x) // overlaps: 5 and 6 list each other
		}
		return seeds
	}
	var r Region

	t.Run("ring kill", func(t *testing.T) {
		// Killing 2: {2} ∪ N_G(2)={1,4}; 2 and 4 share a G′ component
		// and 1 is a singleton, so the closure adds nothing.
		if _, ok := r.Grow(gp, killSeeds(2), 512, nil); !ok {
			t.Fatal("region refused under a generous cap")
		}
		if got, want := sortedNodes(&r), []int{1, 2, 4}; !slices.Equal(got, want) {
			t.Fatalf("region %v, want %v", got, want)
		}
	})

	t.Run("batch seeds", func(t *testing.T) {
		// Killing {5,6}: seeds {5,6,4,7} with duplicates; 4 pulls in its
		// G′ partner 2.
		if _, ok := r.Grow(gp, batchSeeds(5, 6), 512, nil); !ok {
			t.Fatal("region refused under a generous cap")
		}
		if got, want := sortedNodes(&r), []int{2, 4, 5, 6, 7}; !slices.Equal(got, want) {
			t.Fatalf("region %v, want %v", got, want)
		}
	})

	t.Run("cap", func(t *testing.T) {
		if _, ok := r.Grow(gp, batchSeeds(5, 6), 5, nil); !ok {
			t.Fatal("a region of exactly the cap must be accepted")
		}
		if blocker, ok := r.Grow(gp, batchSeeds(5, 6), 4, nil); ok || blocker != -1 {
			t.Fatalf("a region past the cap: ok=%v blocker=%d, want refusal with no blocker", ok, blocker)
		}
	})

	t.Run("owned node blocks", func(t *testing.T) {
		// Killing 5 reaches 4, and through G′ would reach 2; an owner on
		// 2 must stop growth before 2 is added.
		owner := make([]int32, gp.N())
		owner[2] = 7
		blocker, ok := r.Grow(gp, killSeeds(5), 512, owner)
		if ok || blocker != 2 {
			t.Fatalf("ok=%v blocker=%d, want refusal blocked at 2", ok, blocker)
		}
		if slices.Contains(sortedNodes(&r), 2) {
			t.Fatalf("owned node added to the partial region %v", r.Nodes)
		}
	})

	t.Run("scratch reuse after growth", func(t *testing.T) {
		g.AddNode()
		gp.AddNode() // node 12: the marks must grow with the graph
		if _, ok := r.Grow(gp, []int{12}, 512, nil); !ok {
			t.Fatal("singleton region refused")
		}
		if got := sortedNodes(&r); !slices.Equal(got, []int{12}) {
			t.Fatalf("region %v, want [12]: stale marks or nodes leaked", got)
		}
	})
}

// TestComponentsMatchesLabels holds Region.Components to ComponentLabels
// on random forests with dead nodes, dead seeds and duplicate seeds:
// each seed must get the index of the first seed in its component. The
// search may stop before it has swept every seed's component, but only
// once at most one of them is still growing: every node it reached lies
// in a seed's component, none is reached twice, and at most one seed
// component is left partly searched.
func TestComponentsMatchesLabels(t *testing.T) {
	r := rng.New(5)
	var reg Region
	partial := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(80)
		gp := New(n)
		for v := 1; v < n; v++ {
			if r.Intn(4) != 0 {
				gp.AddEdge(v, r.Intn(v))
			}
		}
		for k := r.Intn(n/4 + 1); k > 0; k-- {
			if v := r.Intn(n); gp.Alive(v) {
				gp.RemoveNode(v)
			}
		}
		seeds := make([]int, r.Intn(12))
		for i := range seeds {
			seeds[i] = r.Intn(n)
		}
		if len(seeds) > 1 && r.Intn(2) == 0 {
			seeds[len(seeds)-1] = seeds[r.Intn(len(seeds)-1)]
		}
		if trial%50 == 0 {
			reg.epoch = math.MaxUint32 - uint32(r.Intn(len(seeds)+1)) // force the stamp wrap
		}

		comp := reg.Components(gp, seeds)
		labels := gp.ComponentLabels()
		same := func(a, b int) bool {
			if !gp.Alive(a) || !gp.Alive(b) {
				return a == b
			}
			return labels[a] == labels[b]
		}
		// want maps every node of a seed's component to that
		// component's first seed.
		want := make(map[int]int)
		for i, s := range seeds {
			first := i
			for j := 0; j < i; j++ {
				if same(seeds[j], s) {
					first = j
					break
				}
			}
			if int(comp[i]) != first {
				t.Fatalf("trial %d: seed %d (node %d) in component %d, want %d (seeds %v)", trial, i, s, comp[i], first, seeds)
			}
			for v := 0; v < n; v++ {
				if _, ok := want[v]; !ok && same(v, s) {
					want[v] = first
				}
			}
		}
		got := make(map[int]bool, len(reg.Nodes))
		reached := make(map[int]int) // first seed -> nodes of its component reached
		for _, v := range reg.Nodes {
			if got[int(v)] {
				t.Fatalf("trial %d: node %d visited twice", trial, v)
			}
			got[int(v)] = true
			first, ok := want[int(v)]
			if !ok {
				t.Fatalf("trial %d: reached node %d, outside every seed's component (seeds %v)", trial, v, seeds)
			}
			reached[first]++
		}
		size := make(map[int]int)
		for _, first := range want {
			size[first]++
		}
		var short []int
		for first, k := range size {
			if reached[first] < k {
				short = append(short, seeds[first])
			}
		}
		if len(short) > 1 {
			t.Fatalf("trial %d: the components of seeds %v are each left partly searched (reached %v, seeds %v)", trial, short, sortedNodes(&reg), seeds)
		}
		partial += len(short)
	}
	if partial == 0 {
		t.Fatal("no trial stopped before the last component's end")
	}
}

// TestComponentsStopsAtLastFragment pins the search's locality: a
// 10⁴-node G′ path with two nodes deleted a few hops from one end
// splits into a 3-node, a 4-node and a giant fragment, and finding the
// components of the deleted nodes' neighbours must reach the two small
// fragments, not walk the giant one.
func TestComponentsStopsAtLastFragment(t *testing.T) {
	const n = 10_000
	gp := New(n)
	for v := 1; v < n; v++ {
		gp.AddEdge(v-1, v)
	}
	gp.RemoveNode(3)
	gp.RemoveNode(8)
	var reg Region
	seeds := []int{9, 2, 7, 4}
	comp := reg.Components(gp, seeds)
	if want := []int32{0, 1, 2, 2}; !slices.Equal(comp, want) {
		t.Fatalf("components %v, want %v", comp, want)
	}
	if len(reg.Nodes) > 20 {
		t.Fatalf("search reached %d nodes of a %d-node path; the small fragments hold 7", len(reg.Nodes), n)
	}
}

// labelsRule is the batch rule as core.DeleteBatchAndHeal applied it
// before Representatives: label all of gp, then keep the lowest initial
// ID per label.
func labelsRule(gp *Graph, cands []int, initID []uint64) []int {
	labels := gp.ComponentLabels()
	rep := make(map[int]int)
	for _, v := range cands {
		l := labels[v]
		if cur, ok := rep[l]; !ok || initID[v] < initID[cur] {
			rep[l] = v
		}
	}
	return slices.Sorted(maps.Values(rep))
}

// TestRepresentativesMatchesLabelsRule holds Representatives to the
// labels-and-map rule it replaced, on random forests with dead nodes,
// candidate sets of every size and duplicate candidates.
func TestRepresentativesMatchesLabelsRule(t *testing.T) {
	r := rng.New(11)
	var reg Region
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(120)
		gp := New(n)
		initID := make([]uint64, n)
		for v := range initID {
			initID[v] = r.Uint64()
			if v > 0 && r.Intn(3) != 0 {
				gp.AddEdge(v, r.Intn(v))
			}
		}
		for k := r.Intn(n/4 + 1); k > 0; k-- {
			if v := r.Intn(n); gp.Alive(v) {
				gp.RemoveNode(v)
			}
		}
		alive := gp.AliveNodes()
		if len(alive) == 0 {
			continue
		}
		cands := make([]int, r.Intn(2*len(alive)))
		for i := range cands {
			cands[i] = alive[r.Intn(len(alive))]
		}
		got := reg.Representatives(gp, cands, initID)
		slices.Sort(got)
		if want := labelsRule(gp, cands, initID); !slices.Equal(got, want) {
			t.Fatalf("trial %d: representatives %v, labels rule %v (cands %v)", trial, got, want, cands)
		}
	}
}
