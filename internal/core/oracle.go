package core

import "slices"

// OracleDASH answers the paper's second open problem ("can we remove the
// need for propagating IDs in order to maintain connected component
// information?") empirically: it is DASH with a component oracle.
// Instead of partitioning the deleted node's neighbors by their current
// IDs — the information the MINID flood pays O(n log n) messages to
// maintain — it computes the true G′ components structurally and keeps
// exactly one lowest-initial-ID representative per component.
//
// The oracle produces the same reconnection sets as DASH whenever the ID
// labels are accurate (which DASH's invariant guarantees), so its healing
// behaviour and degree bound match DASH exactly while sending zero label
// messages. The catch is that no locality-aware protocol gets this oracle
// for free: a real implementation must either flood (DASH) or consult
// global state. The ablation experiment quantifies exactly how many
// messages the IDs cost — the price of locality.
type OracleDASH struct{}

// Name implements Healer.
func (OracleDASH) Name() string { return "OracleDASH" }

// Heal implements Healer.
func (OracleDASH) Heal(s *State, d Deletion) HealResult {
	rt := s.OracleReconnectSet(d)
	s.SortByDelta(rt)
	added := s.WireBinaryTree(rt)
	// No MINID propagation: the oracle replaces component labels, so the
	// message counters measure pure reconnection (zero under Lemma 8's
	// accounting).
	return HealResult{RTSize: len(rt), Added: added}
}

// OracleReconnectSet computes the reconnection set from ground truth: one
// lowest-initial-ID representative per actual G′ component among the
// deleted node's surviving neighbors, except that every G′ neighbor of
// the deleted node is included (their components were just split apart by
// the deletion, exactly as in Algorithm 1).
func (s *State) OracleReconnectSet(d Deletion) []int {
	// Seeds: the G′ neighbors first, then every G neighbor; a G′
	// neighbor's component index is its own position.
	seeds := append(append([]int(nil), d.GpNbrs...), d.GNbrs...)
	comp := s.comps.Components(s.Gp, seeds)
	// Components already represented by a G′ neighbor must not get a
	// second representative.
	rep := make(map[int32]int)
	for i, v := range seeds[len(d.GpNbrs):] {
		c := comp[len(d.GpNbrs)+i]
		if int(c) < len(d.GpNbrs) {
			continue
		}
		if cur, ok := rep[c]; !ok || s.initID[v] < s.initID[cur] {
			rep[c] = v
		}
	}
	rt := make([]int, 0, len(rep)+len(d.GpNbrs))
	rt = append(rt, d.GpNbrs...)
	for _, v := range rep {
		rt = append(rt, v)
	}
	slices.Sort(rt)
	return rt
}
