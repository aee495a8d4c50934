package graph

import "math"

// Region is the one definition of a heal's conflict region, shared by
// the sharded commit scheduler (internal/core) and the distributed
// epoch pipeline (internal/dist):
//
//	region(kill x)   = {x} ∪ N_G(x), closed under G′ adjacency
//	region(batch V)  = V ∪ N_G(V), closed under G′ adjacency
//
// The caller supplies the seeds; Grow closes them under G′. The closure
// is what confines a heal: DASH's reconnection set lies in the seeds,
// and its MINID flood travels only the merged G′ component of that set,
// which is the union of the members' components plus the new edges.
//
// A Region value is reusable scratch: visit marks are epoch-stamped, so
// growing a region costs O(|region|), not O(n). It is not safe for
// concurrent use. The same scratch answers Components, the search under
// footnote 1's batch rule (Representatives).
type Region struct {
	// Nodes is the last grown region in discovery order (seeds first),
	// or the union of the seeds' components after Components. After a
	// failed Grow it holds the partial region.
	Nodes []int32

	mark  []uint32
	epoch uint32
}

// Grow sets r.Nodes to seeds closed under gp adjacency and reports
// whether it completed. It stops early as soon as the region would
// exceed limit nodes, or when it reaches a node v with owner[v] != 0 —
// one an in-flight operation holds. It returns that v as blocker
// (otherwise -1), before adding v or reading its adjacency, so a caller
// can grow concurrently with the owners' commits. owner may be nil.
// Duplicate seeds are allowed. Seeds that are dead in gp are included
// but not expanded.
func (r *Region) Grow(gp *Graph, seeds []int, limit int, owner []int32) (blocker int, ok bool) {
	stamp := r.stamps(gp.N(), 1)
	blocker = -1
	push := func(v int) bool {
		if r.mark[v] == stamp {
			return true
		}
		if owner != nil && owner[v] != 0 {
			blocker = v
			return false
		}
		r.mark[v] = stamp
		r.Nodes = append(r.Nodes, int32(v))
		return len(r.Nodes) <= limit
	}
	for _, v := range seeds {
		if !push(v) {
			return blocker, false
		}
	}
	for head := 0; head < len(r.Nodes); head++ {
		for _, u := range gp.Neighbors(int(r.Nodes[head])) {
			if !push(int(u)) {
				return blocker, false
			}
		}
	}
	return -1, true
}

// Components gives each seed the index, into seeds, of the first seed in
// its gp component, and sets r.Nodes to the union of the seeds'
// components in discovery order. It searches those components only, one
// after another, so it costs O(their size), not O(n). Duplicate seeds
// share their first occurrence's index; a dead seed is a component of
// its own.
func (r *Region) Components(gp *Graph, seeds []int) []int32 {
	// Seed i's component is stamped base+i, so a mark also names the
	// component it belongs to.
	base := r.stamps(gp.N(), len(seeds))
	comp := make([]int32, len(seeds))
	for i, s := range seeds {
		if r.mark[s] >= base {
			comp[i] = int32(r.mark[s] - base)
			continue
		}
		comp[i] = int32(i)
		stamp := base + uint32(i)
		head := len(r.Nodes)
		r.mark[s] = stamp
		r.Nodes = append(r.Nodes, int32(s))
		for ; head < len(r.Nodes); head++ {
			for _, u := range gp.Neighbors(int(r.Nodes[head])) {
				if r.mark[u] < base {
					r.mark[u] = stamp
					r.Nodes = append(r.Nodes, u)
				}
			}
		}
	}
	return comp
}

// Representatives is footnote 1's batch rule, the one definition
// core.DeleteBatchAndHeal and internal/dist's batch supervisor share:
// of the candidates cands, one per gp component, the one with the
// lowest initial ID (initID is indexed by node). Components are found
// structurally by Components, because stale labels cannot tell apart the
// fragments a multi-node deletion splits a G′ tree into. Duplicates in
// cands are harmless. The representatives come back in the order their
// components are first met in cands.
func (r *Region) Representatives(gp *Graph, cands []int, initID []uint64) []int {
	comp := r.Components(gp, cands)
	var reps []int
	slot := make([]int, len(cands)) // first candidate's index -> its slot in reps
	for i, v := range cands {
		if c := int(comp[i]); c == i {
			slot[i] = len(reps)
			reps = append(reps, v)
		} else if rep := &reps[slot[c]]; initID[v] < initID[*rep] {
			*rep = v
		}
	}
	return reps
}

// stamps empties r.Nodes and opens k fresh visit stamps for a search of
// an n-node graph, returning the first: base … base+k-1. Every mark
// below base is stale.
func (r *Region) stamps(n, k int) (base uint32) {
	if len(r.mark) < n {
		r.mark = append(r.mark, make([]uint32, n-len(r.mark))...)
	}
	if uint64(r.epoch)+uint64(k) > math.MaxUint32 { // would wrap: invalidate every stale mark
		clear(r.mark)
		r.epoch = 0
	}
	base = r.epoch + 1
	r.epoch += uint32(k)
	r.Nodes = r.Nodes[:0]
	return base
}
