package graph

import (
	"fmt"
	"math/bits"
)

// MultiBFSWidth is how many sources one MultiBFSInto traversal carries:
// one bit of a uint64 word per source.
const MultiBFSWidth = 64

// MultiBFSScratch is reusable scratch for MultiBFSInto: three bit-words
// per node, a node bitmap and a frontier list. The zero value is ready
// to use; a scratch must not be shared by concurrent traversals.
type MultiBFSScratch struct {
	seen, front, next []uint64 // bit i of word v: source i has reached / is expanding / newly reaches v
	mark              []uint64 // bit v: next[v] is non-zero
	cur               []int32  // nodes whose front word is non-zero, ascending
}

// MultiBFSInto computes the hop distances from every sources[i] into
// rows[i], exactly as BFSInto(sources[i], rows[i], ...) would: reachable
// nodes get their distance, unreachable and dead nodes -1, and a dead
// source an all -1 row. Every row must have length g.N(). Sources may
// repeat and come in any order.
//
// It is the bit-parallel multi-source BFS of Then et al. (VLDB 2014):
// up to MultiBFSWidth sources share one traversal, each level making a
// single pass over the neighbour lists for all of them at once, so k
// sources on a small-world graph cost far less than k separate BFSs.
// More sources run in batches of MultiBFSWidth. sc may be nil, in which
// case the scratch is allocated per call.
func (g *Graph) MultiBFSInto(sources []int, rows [][]int32, sc *MultiBFSScratch) {
	if len(rows) != len(sources) {
		panic(fmt.Sprintf("graph: MultiBFSInto has %d rows for %d sources", len(rows), len(sources)))
	}
	n := len(g.adj)
	for _, row := range rows {
		if len(row) != n {
			panic(fmt.Sprintf("graph: MultiBFSInto row length %d, want %d", len(row), n))
		}
	}
	if sc == nil {
		sc = new(MultiBFSScratch)
	}
	if cap(sc.seen) < n {
		sc.seen = make([]uint64, n)
		sc.front = make([]uint64, n)
		sc.next = make([]uint64, n)
		sc.mark = make([]uint64, (n+63)/64)
	}
	sc.seen, sc.front, sc.next = sc.seen[:n], sc.front[:n], sc.next[:n]
	sc.mark = sc.mark[:(n+63)/64]
	for lo := 0; lo < len(sources); lo += MultiBFSWidth {
		hi := min(lo+MultiBFSWidth, len(sources))
		g.multiBFS(sources[lo:hi], rows[lo:hi], sc)
	}
}

// multiBFS runs one batch of at most MultiBFSWidth sources. It leaves
// front, next and mark all zero on return; seen is cleared on entry.
//
// Each level first finds the next words, then walks the mark bitmap to
// settle the newly reached nodes in ascending order. That order keeps
// the row writes moving forward through every row instead of
// scattering, and it makes the next frontier ascending too.
//
// The next words are found in whichever direction visits fewer arcs
// (Beamer et al., SC 2012). Top-down ORs each frontier word, less the
// neighbour's seen bits, into the neighbour's next word. Bottom-up ORs,
// for each open node (one some alive source has not reached yet), its
// neighbours' frontier words, stopping once the node would be full.
// Late levels are bottom-up: by then the frontier is most of the graph
// and few nodes are still open.
func (g *Graph) multiBFS(sources []int, rows [][]int32, sc *MultiBFSScratch) {
	for _, row := range rows {
		for v := range row {
			row[v] = -1
		}
	}
	seen, front, next, mark := sc.seen, sc.front, sc.next, sc.mark
	clear(seen)
	full := uint64(0) // the bits of the alive sources
	for i, s := range sources {
		if !g.Alive(s) {
			continue
		}
		bit := uint64(1) << i
		full |= bit
		seen[s] |= bit
		next[s] |= bit
		mark[s>>6] |= 1 << (s & 63)
	}
	cur := sc.cur[:0]
	openArcs := 2 * g.nEdge // arcs out of open nodes; it only picks the direction
	for d := int32(0); ; d++ {
		frontArcs := 0
		for wi, w := range mark {
			if w == 0 {
				continue
			}
			mark[wi] = 0
			for ; w != 0; w &= w - 1 {
				u := wi<<6 | bits.TrailingZeros64(w)
				nb := next[u]
				next[u] = 0
				seen[u] |= nb
				front[u] = nb
				cur = append(cur, int32(u))
				frontArcs += len(g.adj[u])
				if seen[u] == full {
					openArcs -= len(g.adj[u])
				}
				for ; nb != 0; nb &= nb - 1 {
					rows[bits.TrailingZeros64(nb)][u] = d
				}
			}
		}
		if len(cur) == 0 {
			break
		}
		if openArcs < frontArcs {
			for u, nbrs := range g.adj {
				s := seen[u]
				if s == full || len(nbrs) == 0 {
					continue
				}
				nb := uint64(0)
				for _, v := range nbrs {
					if nb |= front[v]; nb|s == full {
						break
					}
				}
				if nb &^= s; nb != 0 {
					next[u] = nb
					mark[u>>6] |= 1 << (u & 63)
				}
			}
			for _, v := range cur {
				front[v] = 0
			}
		} else {
			for _, v := range cur {
				f := front[v]
				front[v] = 0
				for _, u := range g.adj[v] {
					if nb := f &^ seen[u]; nb != 0 {
						next[u] |= nb
						mark[u>>6] |= 1 << (u & 63)
					}
				}
			}
		}
		cur = cur[:0]
	}
	sc.cur = cur
}
