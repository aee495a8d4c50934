package core

import "slices"

// Batch (simultaneous) deletion: footnote 1 of the paper notes that DASH
// "can easily handle the situation where any number of nodes are removed,
// so long as the neighbor-of-neighbor graph remains connected". This file
// implements that generalization.
//
// Removing a set D of nodes at once leaves, for each connected cluster of
// D, a boundary of survivors. The single-deletion rule "one representative
// per G′ component among the dead node's neighbors" generalizes to: take
// one lowest-initial-ID representative per *post-deletion* G′ component
// among the cluster's surviving boundary, wire them DASH-style (complete
// binary tree in ascending δ order), and flood MINID. For |D| = 1 this
// reconnects exactly one node per split fragment and one per foreign
// component — the same components Algorithm 1 joins.

// RemoveBatch removes every node in xs (ignoring duplicates; panicking if
// any is dead) and returns one Deletion snapshot per node, in the order
// given.
func (s *State) RemoveBatch(xs []int) []Deletion {
	seen := make(map[int]struct{}, len(xs))
	out := make([]Deletion, 0, len(xs))
	for _, x := range xs {
		if _, dup := seen[x]; dup {
			continue
		}
		seen[x] = struct{}{}
		out = append(out, s.Remove(x))
	}
	return out
}

// DeleteBatchAndHeal removes all of xs simultaneously and heals each
// deleted cluster with the batch-DASH rule above. It returns the total
// heal report (RTSize is the sum over clusters). Connectivity of the
// surviving graph is preserved whenever it was preserved by the model's
// precondition (the neighbor-of-neighbor graph of the batch stays
// connected), and G′ remains a forest unconditionally.
func (s *State) DeleteBatchAndHeal(xs []int) HealResult {
	if s.hooks != nil && s.hooks.OnBatchKill != nil {
		s.hooks.OnBatchKill(xs)
	}
	dels := s.RemoveBatch(xs)
	var res HealResult
	for _, cluster := range ClusterDeletions(dels) {
		// Candidates: all surviving G neighbors of the cluster.
		candSet := make(map[int]struct{})
		for _, d := range cluster {
			for _, v := range d.GNbrs {
				if s.G.Alive(v) {
					candSet[v] = struct{}{}
				}
			}
		}
		if len(candSet) == 0 {
			continue
		}
		cands := make([]int, 0, len(candSet))
		for v := range candSet {
			cands = append(cands, v)
		}
		slices.Sort(cands)
		// One representative per current (post-deletion) G′ component,
		// lowest initial ID first. Component identity must be computed
		// structurally here: the stale labels cannot distinguish the
		// fragments a multi-node deletion splits a tree into.
		labels := s.Gp.ComponentLabels()
		rep := make(map[int]int)
		for _, v := range cands {
			l := labels[v]
			if cur, ok := rep[l]; !ok || s.initID[v] < s.initID[cur] {
				rep[l] = v
			}
		}
		rt := make([]int, 0, len(rep))
		for _, v := range rep {
			rt = append(rt, v)
		}
		slices.Sort(rt)
		s.SortByDelta(rt)
		added := s.WireBinaryTree(rt)
		s.PropagateMinID(rt)
		res.RTSize += len(rt)
		res.Added = append(res.Added, added...)
	}
	s.noteRound()
	return res
}

// ClusterDeletions groups the deletion snapshots of a batch into
// connected clusters of the deleted set (adjacency as of deletion time:
// x and y are in one cluster when y ∈ N(x,G) at the moment the batch was
// removed). Healing treats each cluster as one "super-deletion"; the
// clusters come back ordered by smallest member index, which is also the
// order the distributed batch-kill epoch heals them in (internal/dist
// cross-checks its message-built clusters against this function).
func ClusterDeletions(dels []Deletion) [][]Deletion {
	index := make(map[int]int, len(dels)) // node -> position in dels
	for i, d := range dels {
		index[d.Node] = i
	}
	// Union-find over batch positions.
	parent := make([]int, len(dels))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for i, d := range dels {
		// GNbrs snapshots only contain nodes alive at x's own removal
		// instant; to catch both orders, link via the later snapshot's
		// view too (j removed after i lists i only if i was still
		// alive, so also scan for i in j's neighbors symmetrically).
		for _, v := range d.GNbrs {
			if j, ok := index[v]; ok {
				union(i, j)
			}
		}
	}
	groups := make(map[int][]Deletion)
	for i, d := range dels {
		r := find(i)
		groups[r] = append(groups[r], d)
	}
	// Deterministic order: by smallest member node index.
	keys := make([]int, 0, len(groups))
	byKey := make(map[int][]Deletion, len(groups))
	for _, g := range groups {
		minNode := g[0].Node
		for _, d := range g[1:] {
			if d.Node < minNode {
				minNode = d.Node
			}
		}
		keys = append(keys, minNode)
		byKey[minNode] = g
	}
	slices.Sort(keys)
	out := make([][]Deletion, 0, len(groups))
	for _, k := range keys {
		out = append(out, byKey[k])
	}
	return out
}
