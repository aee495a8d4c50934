package core

// SDASHFull implements the *prose* semantics of surrogation in §4.6.2:
// "we say a node surrogates if it replaces its deleted neighbor in the
// network, i.e. it takes all the connections of the deleted neighbor to
// itself". Under that rule every path through the deleted node keeps its
// length exactly (p–v–q becomes p–w–q), which is the paper's argument
// for why "surrogation never increases stretch".
//
// The printed Algorithm 3 stars only the reconnection set RT = UN ∪ N′,
// which preserves connectivity and degrees but not path lengths between
// non-representative neighbors. Measured, the difference is small:
// under Figure 10's MaxNode attack at 30 trials the two rules' stretch
// stays within 7% of each other, and neither reproduces the paper's low
// SDASH curve (README's "Reproducing the paper" has the table). Both
// variants are provided; SDASH is the printed algorithm, SDASHFull is
// the prose one.
//
// Bookkeeping note: the surrogate's edges to RT members merge healing-
// forest components and are recorded in G′; its edges to the remaining
// neighbors are pure shortcuts inside already-connected components and
// are added to G only, keeping G′ a forest and every DASH invariant
// intact.
type SDASHFull struct{}

// Name implements Healer.
func (SDASHFull) Name() string { return "SDASHFull" }

// Heal implements Healer.
func (SDASHFull) Heal(s *State, d Deletion) HealResult {
	rt := s.ReconnectSet(d)
	res := HealResult{RTSize: len(rt)}
	if len(rt) == 0 {
		return res
	}
	s.SortByDelta(rt)

	// Surrogation condition against the full neighbor set: the surrogate
	// takes every connection of the deleted node, so its worst-case gain
	// is |N(v)| - 1 edges.
	w := minDeltaNeighbor(s, d.GNbrs)
	m := maxDelta(s, d.GNbrs)
	if w >= 0 && s.Delta(w)+len(d.GNbrs)-1 <= m {
		// An edge enters the healing forest G′ only when it merges two
		// G′ components that are still separate; the rest are shortcuts
		// recorded in G alone, so G′ stays a forest.
		seeds := append([]int{w}, d.GNbrs...)
		comp := s.comps.Components(s.Gp, seeds)
		merged := make([]bool, len(seeds)) // by component index
		merged[0] = true
		for i, u := range d.GNbrs {
			if u == w {
				continue
			}
			if c := comp[i+1]; !merged[c] {
				merged[c] = true
				if s.AddHealingEdge(w, u) {
					res.Added = append(res.Added, [2]int{w, u})
				}
				continue
			}
			if s.AddShortcutEdge(w, u) {
				res.Added = append(res.Added, [2]int{w, u})
			}
		}
		res.Surrogated = true
		// Every neighbor now borders the merged component; flood from
		// the full neighbor set so labels stay exact.
		s.PropagateMinID(seeds)
		return res
	}
	res.Added = s.WireBinaryTree(rt)
	s.PropagateMinID(rt)
	return res
}

// minDeltaNeighbor returns the member of vs with the smallest (δ,
// initial ID), or -1 for an empty set.
func minDeltaNeighbor(s *State, vs []int) int {
	best := -1
	for _, v := range vs {
		if best < 0 || s.Delta(v) < s.Delta(best) ||
			(s.Delta(v) == s.Delta(best) && s.initID[v] < s.initID[best]) {
			best = v
		}
	}
	return best
}

// maxDelta returns the largest δ among vs (0 for an empty set).
func maxDelta(s *State, vs []int) int {
	m := 0
	for i, v := range vs {
		if d := s.Delta(v); i == 0 || d > m {
			m = d
		}
	}
	return m
}
