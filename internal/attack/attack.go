// Package attack implements the adversaries of the paper:
//
//   - MaxDegree ("MaxNode" in §4.2): always delete the highest-degree
//     node — the strategy the paper found most effective at inflating
//     stretch (Fig. 10);
//   - NeighborOfMax (NMS): delete a random neighbor of the highest-degree
//     node — the strategy that consistently produced the largest degree
//     increases (Fig. 8), modeling well-protected hubs whose periphery is
//     easy to take down;
//   - Random: uniform random deletion, a non-adversarial control;
//   - MinDegree: always delete the lowest-degree node, a gentle control;
//   - LevelAttack: Algorithm 2 — the lower-bound adversary that walks an
//     (M+2)-ary tree level by level, pruning excess children, and forces
//     any M-degree-bounded locality-aware healer into Ω(log n) degree
//     increase (Theorem 2).
//
// A Strategy picks one victim per round; it returns NoTarget when it has
// nothing left to attack (the harness then stops the run).
package attack

import (
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

// NoTarget is returned by Strategy.Next when the attack is finished.
const NoTarget = -1

// Strategy selects the next node to delete given the current healing
// state. Implementations may be stateful (LevelAttack is); a fresh
// Strategy value must be used per run.
type Strategy interface {
	// Name identifies the adversary in tables and figures.
	Name() string
	// Next returns the next victim, or NoTarget when the attack is done.
	Next(s *core.State, r *rng.RNG) int
}

// MaxDegree deletes the alive node with the largest degree (ties broken
// by lowest index).
type MaxDegree struct{}

// Name implements Strategy.
func (MaxDegree) Name() string { return "MaxNode" }

// Next implements Strategy.
func (MaxDegree) Next(s *core.State, _ *rng.RNG) int {
	return s.G.MaxDegreeNode() // -1 (== NoTarget) when the graph is empty
}

// NeighborOfMax deletes a uniformly random neighbor of the highest-degree
// node; when that node is isolated it deletes the node itself.
type NeighborOfMax struct{}

// Name implements Strategy.
func (NeighborOfMax) Name() string { return "NeighborOfMax" }

// Next implements Strategy.
func (NeighborOfMax) Next(s *core.State, r *rng.RNG) int {
	hub := s.G.MaxDegreeNode()
	if hub < 0 {
		return NoTarget
	}
	nbrs := s.G.Neighbors(hub)
	if len(nbrs) == 0 {
		return hub
	}
	return int(nbrs[r.Intn(len(nbrs))])
}

// Random deletes a uniformly random alive node.
type Random struct{}

// Name implements Strategy.
func (Random) Name() string { return "Random" }

// Next implements Strategy. It draws the victim's rank among the alive
// nodes and walks to it, without materializing the alive list.
func (Random) Next(s *core.State, r *rng.RNG) int {
	if s.G.NumAlive() == 0 {
		return NoTarget
	}
	k := r.Intn(s.G.NumAlive())
	for v := 0; ; v++ {
		if s.G.Alive(v) {
			if k == 0 {
				return v
			}
			k--
		}
	}
}

// MinDegree deletes the alive node with the smallest degree (ties broken
// by lowest index).
type MinDegree struct{}

// Name implements Strategy.
func (MinDegree) Name() string { return "MinNode" }

// Next implements Strategy.
func (MinDegree) Next(s *core.State, _ *rng.RNG) int {
	best, bestDeg := NoTarget, int(^uint(0)>>1)
	for v, n := 0, s.G.N(); v < n; v++ {
		if d := s.G.Degree(v); d < bestDeg && s.G.Alive(v) {
			best, bestDeg = v, d
		}
	}
	return best
}

// LevelAttack is Algorithm 2: on a complete (M+2)-ary tree it deletes
// nodes one level at a time from the leaves' parents up to the root.
// Before deleting a level-i node v it prunes v's "excess" downward
// neighbors — when v has accumulated more than M+2 of them through
// healing, the least-δ ones and their subtrees are removed by repeated
// leaf deletion (the Prune operation), so exactly the M+2 highest-δ
// children remain and Lemma 12 forces one of them to absorb another
// degree increase when v dies.
type LevelAttack struct {
	tree   *gen.KaryTree
	m      int
	levels [][]int // original node lists per level

	level   int // level currently being processed (D-1 down to 0)
	pos     int // cursor within levels[level]
	pruning bool
	pruneV  int // the node whose child is being pruned
	pruneC  int // the child whose subtree is being removed
	done    bool
}

// NewLevelAttack builds the adversary for the given tree, with M the
// assumed per-round degree-increase bound of the healer under attack.
// The tree should be (M+2)-ary for the Theorem 2 construction, but the
// adversary is well defined on any KaryTree.
func NewLevelAttack(tree *gen.KaryTree, m int) *LevelAttack {
	levels := make([][]int, tree.Depth+1)
	for v := 0; v < tree.G.N(); v++ {
		l := tree.Level[v]
		levels[l] = append(levels[l], v)
	}
	return &LevelAttack{
		tree:   tree,
		m:      m,
		levels: levels,
		level:  tree.Depth - 1,
	}
}

// Name implements Strategy.
func (a *LevelAttack) Name() string { return "LevelAttack" }

// Next implements Strategy.
func (a *LevelAttack) Next(s *core.State, _ *rng.RNG) int {
	for {
		if a.done || a.level < 0 {
			a.done = true
			return NoTarget
		}
		if a.pruning {
			if !s.G.Alive(a.pruneC) {
				a.pruning = false
				continue
			}
			return a.subtreeLeaf(s, a.pruneC, a.pruneV)
		}
		if a.pos >= len(a.levels[a.level]) {
			a.level--
			a.pos = 0
			continue
		}
		v := a.levels[a.level][a.pos]
		if !s.G.Alive(v) {
			a.pos++
			continue
		}
		children := a.downNeighbors(s, v)
		if len(children) > a.m+2 {
			a.pruneV = v
			a.pruneC = a.leastDeltaNode(s, children)
			a.pruning = true
			continue
		}
		a.pos++
		return v
	}
}

// downNeighbors returns v's alive neighbors whose original level is below
// v's in the tree: its current "children", whether original or adopted
// through healing.
func (a *LevelAttack) downNeighbors(s *core.State, v int) []int {
	var out []int
	for _, u := range s.G.Neighbors(v) {
		if a.tree.Level[u] > a.tree.Level[v] {
			out = append(out, int(u))
		}
	}
	return out
}

// leastDeltaNode picks the member with the smallest δ, ties broken by
// lowest index — the pruning order Algorithm 2 prescribes ("deleting
// those with least degree increases").
func (a *LevelAttack) leastDeltaNode(s *core.State, vs []int) int {
	best := vs[0]
	for _, v := range vs[1:] {
		if s.Delta(v) < s.Delta(best) {
			best = v
		}
	}
	return best
}

// subtreeLeaf returns the next victim of Prune(v, c): the node of c's
// side of the graph (reachable from c without crossing v) farthest from
// v, ties broken by lowest index. On a tree this is always a leaf, so its
// deletion needs no healing edges; on the cyclic graphs a naive healer
// can produce, it is still the most peripheral node of the subtree.
func (a *LevelAttack) subtreeLeaf(s *core.State, c, v int) int {
	type qe struct{ node, dist int }
	seen := map[int]struct{}{c: {}, v: {}}
	queue := []qe{{c, 0}}
	best, bestDist := c, 0
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		if e.dist > bestDist || (e.dist == bestDist && e.node < best) {
			best, bestDist = e.node, e.dist
		}
		for _, u32 := range s.G.Neighbors(e.node) {
			u := int(u32)
			if _, ok := seen[u]; ok {
				continue
			}
			seen[u] = struct{}{}
			queue = append(queue, qe{u, e.dist + 1})
		}
	}
	return best
}
