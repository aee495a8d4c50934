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
	labels := s.Gp.ComponentLabels()
	gpSet := make(map[int]struct{}, len(d.GpNbrs))
	for _, v := range d.GpNbrs {
		gpSet[v] = struct{}{}
	}
	// Components already represented by a G′ neighbor must not get a
	// second representative.
	taken := make(map[int]struct{}, len(d.GpNbrs))
	for _, v := range d.GpNbrs {
		taken[labels[v]] = struct{}{}
	}
	rep := make(map[int]int)
	for _, v := range d.GNbrs {
		if _, isGp := gpSet[v]; isGp {
			continue
		}
		l := labels[v]
		if _, ok := taken[l]; ok {
			continue
		}
		if cur, ok := rep[l]; !ok || s.initID[v] < s.initID[cur] {
			rep[l] = v
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
