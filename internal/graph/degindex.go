package graph

// maxDegreeIndex answers MaxDegreeNode — "which alive node has the
// largest degree, smallest index on ties?" — without an O(n) scan, so the
// MaxDegree-style adversaries cost O(heal) per round instead of O(n). The
// Graph owns it: MaxDegreeNode builds it on its first call and AddEdge
// and AddNode keep it current from then on.
//
// Nodes are filed in degree buckets, each a min-heap on node index. The
// index is deliberately lazy about degree *drops* (RemoveNode's
// neighbours and RemoveEdge's endpoints lose edges, and no one tells
// it): a node may sit filed above its true degree and is demoted on
// discovery when the top-down scan reaches it. Degree *rises* are noted
// eagerly by AddEdge, because a node filed below its true degree would be
// invisible to the scan. Under that contract every alive node v
// satisfies filed(v) ≥ degree(v), so when the scan finds its first exact
// match all higher buckets are empty and the match is the true maximum,
// with the heap delivering the smallest index among equals:
// bit-identical to a naive scan.
//
// Costs are amortized: every demotion strictly lowers a node's filed
// degree (bounded by total degree decrements), every stale duplicate
// discarded was paid for by one rise, and the top-bucket cursor only
// rises with filed degrees. Dead nodes are discarded on discovery.
type maxDegreeIndex struct {
	g       *Graph
	buckets [][]int32 // buckets[d]: min-heap of node indices filed at degree d
	filed   []int32   // node -> degree it is currently filed under, -1 none
	maxDeg  int       // highest possibly-non-empty bucket
}

// newMaxDegreeIndex indexes the alive nodes of g at their current
// degrees.
func newMaxDegreeIndex(g *Graph) *maxDegreeIndex {
	ix := &maxDegreeIndex{g: g, filed: make([]int32, g.N())}
	for v := range ix.filed {
		ix.filed[v] = -1
		if g.alive[v] {
			ix.file(v, len(g.adj[v]))
		}
	}
	return ix
}

// file pushes v into bucket d and records it as v's filed degree. Any
// entry v left in another bucket becomes a stale duplicate, discarded
// when the scan reaches it.
func (ix *maxDegreeIndex) file(v, d int) {
	for len(ix.buckets) <= d {
		ix.buckets = append(ix.buckets, nil)
	}
	heapPush(&ix.buckets[d], int32(v))
	ix.filed[v] = int32(d)
	if d > ix.maxDeg {
		ix.maxDeg = d
	}
}

// rise re-files the alive node v, whose degree just rose to d, unless it
// is already filed at d or above (a lazy drop left it there; the scan
// demotes it when it gets that far).
func (ix *maxDegreeIndex) rise(v, d int) {
	if int32(d) > ix.filed[v] {
		ix.file(v, d)
	}
}

// join files the fresh, isolated node v.
func (ix *maxDegreeIndex) join(v int) {
	for len(ix.filed) <= v {
		ix.filed = append(ix.filed, -1)
	}
	ix.file(v, 0)
}

// max returns the alive node with the largest degree, ties broken by
// smallest index, or -1 when no alive node is filed. The returned node
// stays filed (callers typically kill it next; its entry is then
// discarded as dead on a later scan).
func (ix *maxDegreeIndex) max() int {
	for ix.maxDeg >= 0 {
		if len(ix.buckets) <= ix.maxDeg || len(ix.buckets[ix.maxDeg]) == 0 {
			ix.maxDeg--
			continue
		}
		b := ix.buckets[ix.maxDeg]
		v := int(b[0])
		if !ix.g.alive[v] {
			heapPop(&ix.buckets[ix.maxDeg])
			if ix.filed[v] == int32(ix.maxDeg) {
				ix.filed[v] = -1
			}
			continue
		}
		if ix.filed[v] != int32(ix.maxDeg) {
			// Stale duplicate left behind by a rise.
			heapPop(&ix.buckets[ix.maxDeg])
			continue
		}
		if d := len(ix.g.adj[v]); d != ix.maxDeg {
			// Degree dropped since filing; demote and keep scanning.
			heapPop(&ix.buckets[ix.maxDeg])
			ix.file(v, d)
			continue
		}
		return v
	}
	ix.maxDeg = 0
	return -1
}

// heapPush / heapPop implement a plain min-heap on []int32 (by node
// index), open-coded to keep the hot path free of interface calls.
func heapPush(h *[]int32, x int32) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func heapPop(h *[]int32) int32 {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s) && s[l] < s[m] {
			m = l
		}
		if r < len(s) && s[r] < s[m] {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}
