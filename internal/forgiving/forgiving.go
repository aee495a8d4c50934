// Package forgiving implements Trehan's successor self-healing
// algorithms — ForgivingTree and ForgivingGraph (arXiv:1305.4675) — as
// core.Healer strategies, so they slot into every harness (sim,
// scenario, experiments, the CLIs) next to the paper's DASH family.
//
// Where DASH wires a flat complete binary tree over a reconnection set
// and bounds only degree increase, the forgiving healers replace each
// deleted node with a *half-full tree* (HAFT) of its neighbors: a
// balanced binary tree of virtual nodes, each simulated by a real
// survivor, projected down to real edges. The balanced shape bounds
// the detour any old path takes through the repair to O(log d) hops,
// and because each survivor simulates O(1) roles per tree it joins,
// its real degree grows by O(1) per incident deletion — constant
// degree increase AND logarithmic stretch at once.
//
// The projection: a HAFT over members m₀ ≤ m₁ ≤ … ≤ m_{k-1} (ascending
// (δ, initial ID), exactly core.SortByDelta's order) is the balanced
// binary tree with the members as leaves; every internal virtual node
// is simulated by its leftmost leaf descendant, so the heir m₀
// simulates the whole root spine. Left-child virtual edges join
// same-simulator vnodes and vanish in projection; the k−1 surviving
// right-child edges form a real tree of depth ≤ ⌈log₂k⌉ in which most
// members gain exactly one edge. See README.md for the worked
// construction and the degree/stretch argument.
package forgiving

import (
	"slices"

	"repro/internal/core"
)

// wireHAFT projects the HAFT over members (already in ascending
// (δ, initID) order) to real edges. The members are the leaves of a
// balanced binary tree; every internal virtual node is simulated by
// its LEFTMOST leaf descendant. Under that assignment each internal's
// left-child virtual edge joins two vnodes with the same simulator —
// a self-loop that projects to nothing — so only the right-child edge
// (leftmost member of the left half ↔ leftmost member of the right
// half, at every split) becomes real: exactly k−1 real edges forming
// a tree of depth ≤ ⌈log₂k⌉ over the members. The degree accounting
// is what makes the healer forgiving: most members gain a single edge
// (replacing the one they lost to the deletion — net zero δ), and the
// O(log k) spine edges land on the lowest-δ members, DASH's charging
// trick. Returns the edges newly added to G, in deterministic
// pre-order.
func wireHAFT(s *core.State, members []int) [][2]int {
	var added [][2]int
	var rec func(lo, hi int) int // leader = leftmost member index of the range
	rec = func(lo, hi int) int {
		if hi-lo == 1 {
			return lo
		}
		mid := lo + (hi-lo+1)/2
		l := rec(lo, mid)
		r := rec(mid, hi)
		a, b := members[l], members[r]
		if a != b && s.AddHealingEdge(a, b) {
			added = append(added, [2]int{a, b})
		}
		return l
	}
	rec(0, len(members))
	return added
}

// boundary collects the surviving G-neighbors of a deletion cluster,
// sorted ascending and deduplicated — the members the cluster's one
// merged HAFT is built over.
func boundary(s *core.State, cluster []core.Deletion) []int {
	var out []int
	for _, d := range cluster {
		for _, v := range d.GNbrs {
			if s.G.Alive(v) {
				out = append(out, v)
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	slices.Sort(out)
	return slices.Compact(out)
}
