package graph

import (
	"math"
	"slices"
)

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
// concurrent use. The same scratch runs every other bounded search over
// a graph: Components (footnote 1's batch rule through Representatives,
// OracleReconnectSet, SDASHFull's surrogate and the scenario
// connectivity tracker) and Graph.BFSBall. The slice Components returns
// is this scratch too, valid until the next call on the Region, so a
// caller that searches once per event allocates nothing.
type Region struct {
	// Nodes is the last grown region in discovery order (seeds first),
	// or, after Components, the nodes its search reached. After a
	// failed Grow it holds the partial region.
	Nodes []int32

	mark  []uint32
	epoch uint32
	comp  []int32 // Components' union-find, then its result
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
// its gp component. Duplicate seeds share their first occurrence's
// index; a dead seed is a component of its own. The returned slice is
// r's scratch, valid until the next call on r.
//
// It is one multi-source search: every distinct seed starts its own
// search in one FIFO queue, a union-find over seed indices merges two
// searches when they meet, and each merged search counts the nodes it
// has reached but not yet scanned. A search whose count drops to zero
// has swept a whole component, so the search stops, mid-adjacency-list
// if need be, as soon as at most one merged search is still growing:
// the nodes it has not reached lie in that last one's component. A
// split therefore ends once every fragment but the largest has run dry,
// not after a full traversal; until then the largest grows in lockstep,
// one BFS level per level of theirs. r.Nodes holds the nodes reached,
// in discovery order, seeds first.
func (r *Region) Components(gp *Graph, seeds []int) []int32 {
	// Each mark is base plus the index of the seed whose search reached
	// the node. r.comp is the union-find over those indices, linked to
	// the smaller index, so a root is the first seed of its set; a root
	// holds -1 minus the number of nodes its set has reached but not yet
	// scanned, any other entry its parent.
	base := r.stamps(gp.N(), len(seeds))
	growing := r.seed(seeds, base)
	for head := 0; growing > 1; head++ {
		v := r.Nodes[head]
		own := r.find(int32(r.mark[v] - base))
		tail := len(r.Nodes)
		for _, u := range gp.Neighbors(int(v)) {
			m := r.mark[u]
			if m < base {
				r.mark[u] = base + uint32(own)
				r.Nodes = append(r.Nodes, u)
				continue
			}
			o := int32(m - base)
			if o == own {
				continue
			}
			// Reached by another search: point u at its root to shorten
			// later finds, and merge the two sets if they differ. o is
			// still growing, since a set that ran dry swept its whole
			// component and no other search can meet it.
			o = r.find(o)
			r.mark[u] = base + uint32(o)
			if o != own {
				own = r.union(own, o)
				if growing--; growing == 1 {
					break
				}
			}
		}
		// v is scanned, and what it reached is not.
		if r.comp[own] -= int32(len(r.Nodes)-tail) - 1; r.comp[own] == -1 {
			growing--
		}
	}
	comp := r.comp
	for i, p := range comp { // parents precede children: one pass flattens
		if p < 0 {
			comp[i] = int32(i)
		} else {
			comp[i] = comp[p]
		}
	}
	return comp
}

// seed starts Components' searches: each distinct seed s gets the stamp
// base+i of its first index i in seeds and a set of its own, with one
// node reached and not scanned (s itself); a repeat gets its first
// occurrence as parent. It returns the number of searches started.
func (r *Region) seed(seeds []int, base uint32) (searches int) {
	r.comp = slices.Grow(r.comp[:0], len(seeds))[:len(seeds)]
	mark, comp, nodes := r.mark, r.comp, r.Nodes
	for i, s := range seeds {
		if m := mark[s]; m >= base {
			comp[i] = int32(m - base)
			continue
		}
		comp[i] = -2
		mark[s] = base + uint32(i)
		nodes = append(nodes, int32(s))
		searches++
	}
	r.Nodes = nodes
	return searches
}

// find returns the root of Components' set a, halving the path.
func (r *Region) find(a int32) int32 {
	p := r.comp
	for p[a] >= 0 {
		if p[p[a]] >= 0 {
			p[a] = p[p[a]]
		}
		a = p[a]
	}
	return a
}

// union merges Components' sets with roots a and b under the smaller
// index and returns it.
func (r *Region) union(a, b int32) int32 {
	p := r.comp
	if b < a {
		a, b = b, a
	}
	p[a] += p[b] + 1
	p[b] = a
	return a
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
