package graph

// Cut-structure analysis: articulation points, via Tarjan's lowpoint
// algorithm (iterative, so deep graphs cannot overflow the stack). The
// CutVertex attack strategy deletes articulation points — the nodes
// whose loss disconnects an unhealed network.

// ArticulationPoints returns the alive nodes whose removal would
// disconnect their component, in sorted order.
func (g *Graph) ArticulationPoints() []int {
	n := len(g.adj)
	disc := make([]int, n) // discovery time, 0 = unvisited
	low := make([]int, n)
	parent := make([]int, n)
	isAP := make([]bool, n)
	for i := range parent {
		parent[i] = -1
	}
	timer := 0

	type frame struct {
		v    int
		nbrs []int32
		next int
	}
	for root := 0; root < n; root++ {
		if !g.alive[root] || disc[root] != 0 {
			continue
		}
		rootChildren := 0
		timer++
		disc[root], low[root] = timer, timer
		stack := []frame{{v: root, nbrs: g.Neighbors(root)}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(f.nbrs) {
				u := int(f.nbrs[f.next])
				f.next++
				if disc[u] == 0 {
					parent[u] = f.v
					if f.v == root {
						rootChildren++
					}
					timer++
					disc[u], low[u] = timer, timer
					stack = append(stack, frame{v: u, nbrs: g.Neighbors(u)})
				} else if u != parent[f.v] && disc[u] < low[f.v] {
					low[f.v] = disc[u]
				}
				continue
			}
			stack = stack[:len(stack)-1]
			p := parent[f.v]
			if p != -1 {
				if low[f.v] < low[p] {
					low[p] = low[f.v]
				}
				if p != root && low[f.v] >= disc[p] {
					isAP[p] = true
				}
			}
		}
		if rootChildren >= 2 {
			isAP[root] = true
		}
	}
	var out []int
	for v := 0; v < n; v++ {
		if isAP[v] {
			out = append(out, v)
		}
	}
	return out
}
