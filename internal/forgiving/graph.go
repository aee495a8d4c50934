package forgiving

import (
	"slices"

	"repro/internal/core"
)

// vnode is one virtual node: who simulates it and its place in the
// virtual forest (arena indices; -1 = none). A vnode is created when a
// memorial HAFT is built and lives forever; only its simulator changes
// — to a surviving descendant's simulator when its own dies, or to -1
// when it retires (a dead member's leaf position) or its whole subtree
// dies with it.
type vnode struct {
	sim                 int32
	parent, left, right int32
}

// Graph is ForgivingGraph: deletions are healed by half-full trees
// whose virtual nodes persist. When a node that simulates virtual
// roles later dies, the structure heals itself locally — each of its
// internal roles passes to the leftmost surviving leaf descendant's
// simulator (re-realizing that role's virtual edges as real edges),
// and the parents of its retired leaf positions join the new
// memorial HAFT as members. Old repair trees therefore merge into new
// ones instead of stacking: the death of a previously-healed region
// reuses the standing structure, which is what keeps both the degree
// increase and the stretch of repeatedly-attacked regions low —
// contrast Tree, which rebuilds from the deletion snapshot alone.
//
// A Graph value carries bookkeeping for one network, so it implements
// core.PerState; harnesses obtain per-trial instances via
// core.InstanceFor. The zero value (and NewGraph()) is ready to use
// and binds itself to the first State it heals.
type Graph struct {
	bound  *core.State
	vn     []vnode   // arena of virtual nodes
	byReal [][]int32 // real node -> virtual roles it simulates
}

// NewGraph returns an unbound ForgivingGraph healer.
func NewGraph() *Graph { return &Graph{} }

// Name implements core.Healer.
func (f *Graph) Name() string { return "ForgivingGraph" }

// NewInstance implements core.PerState.
func (f *Graph) NewInstance() core.Healer { return &Graph{} }

// bind ties the bookkeeping to s, resetting it when the harness reuses
// one instance across networks (defensive: InstanceFor normally hands
// every trial a fresh instance).
func (f *Graph) bind(s *core.State) {
	if f.bound == s {
		return
	}
	f.bound = s
	f.vn = nil
	f.byReal = nil
}

func (f *Graph) ensure(v int) {
	for len(f.byReal) <= v {
		f.byReal = append(f.byReal, nil)
	}
}

// Heal implements core.Healer.
func (f *Graph) Heal(s *core.State, d core.Deletion) core.HealResult {
	f.bind(s)
	return f.healCluster(s, []core.Deletion{d})
}

// HealBatch implements core.BatchHealer: one merged memorial per
// connected cluster of the deleted set (the batch-DASH clustering
// rule). Virtual edges that cross clusters re-realize in the second
// cluster's succession pass, once both sides have live simulators.
func (f *Graph) HealBatch(s *core.State, dels []core.Deletion) core.HealResult {
	f.bind(s)
	var res core.HealResult
	for _, cluster := range core.ClusterDeletions(dels) {
		r := f.healCluster(s, cluster)
		res.RTSize += r.RTSize
		res.Added = append(res.Added, r.Added...)
	}
	return res
}

func (f *Graph) healCluster(s *core.State, cluster []core.Deletion) core.HealResult {
	members := boundary(s, cluster)
	if len(members) == 0 {
		// A component died whole: its virtual roles have no successor.
		f.orphan(cluster)
		return core.HealResult{}
	}
	added, parentSims := f.succession(s, cluster)
	// Memorial HAFT members: the dead nodes' graph neighbors plus the
	// simulators whose standing structure just lost a leaf to the
	// cluster — re-parenting them here is what merges the old repair
	// trees into the new one.
	mm := append(append([]int(nil), members...), parentSims...)
	slices.Sort(mm)
	mm = slices.Compact(mm)
	if len(mm) > 1 {
		s.SortByDelta(mm)
		added = append(added, f.memorial(s, mm)...)
	}
	s.PropagateMinID(members)
	return core.HealResult{RTSize: len(mm), Added: added}
}

// succession walks every virtual role held by the cluster's dead
// nodes, children before parents (a memorial allocates parents before
// children, so descending arena order is bottom-up within each tree):
//
//   - a leaf role retires — it was the dead node's own seat in an
//     older memorial; its parent's simulator is reported back so the
//     caller re-seats that tree in the new memorial;
//   - an internal role passes to its leftmost surviving child's
//     simulator, and the successor re-realizes the role's virtual
//     edges as real edges, keeping the old tree's projection
//     connected around the gap (or retires to -1 when the whole
//     subtree died with the cluster).
//
// Returns the real edges added and the (alive, unsorted, possibly
// duplicated) parent simulators of retired leaves.
func (f *Graph) succession(s *core.State, cluster []core.Deletion) ([][2]int, []int) {
	var roles []int32
	for _, d := range cluster {
		if d.Node < len(f.byReal) {
			roles = append(roles, f.byReal[d.Node]...)
			f.byReal[d.Node] = nil
		}
	}
	if len(roles) == 0 {
		return nil, nil
	}
	sortInt32Desc(roles)
	var added [][2]int
	var parentSims []int
	for _, id := range roles {
		v := &f.vn[id]
		if v.left < 0 { // leaf seat: retire, re-home its tree via the parent
			v.sim = -1
			if p := v.parent; p >= 0 {
				if ps := int(f.vn[p].sim); ps >= 0 && s.G.Alive(ps) {
					parentSims = append(parentSims, ps)
				}
			}
			continue
		}
		ns := f.vn[v.left].sim
		if ns < 0 || !s.G.Alive(int(ns)) {
			ns = f.vn[v.right].sim
		} else if alt := f.vn[v.right].sim; alt >= 0 && alt != ns && s.G.Alive(int(alt)) {
			// Both children live: seat the role on the child simulator
			// with more spare degree budget (DASH's charging order),
			// so a long spine's roles spread instead of stacking on
			// one successor.
			da, db := s.Delta(int(alt)), s.Delta(int(ns))
			if da < db || (da == db && s.InitID(int(alt)) < s.InitID(int(ns))) {
				ns = alt
			}
		}
		if ns < 0 || !s.G.Alive(int(ns)) {
			v.sim = -1 // entire subtree died with the cluster
			continue
		}
		v.sim = ns
		f.ensure(int(ns))
		f.byReal[ns] = append(f.byReal[ns], id)
		for _, nb := range [3]int32{v.parent, v.left, v.right} {
			if nb < 0 {
				continue
			}
			sm := int(f.vn[nb].sim)
			if sm < 0 || sm == int(ns) || !s.G.Alive(sm) {
				continue
			}
			if s.AddHealingEdge(int(ns), sm) {
				added = append(added, [2]int{int(ns), sm})
			}
		}
	}
	return added, parentSims
}

// memorial registers the HAFT over members (already sorted ascending
// by (δ, initID)) in the virtual arena — one fresh leaf per member
// plus the internals, each internal simulated by its leftmost leaf
// descendant — and projects the non-collapsing virtual edges to real
// edges (the same k−1 edges wireHAFT adds; recording them virtually is
// what lets a later death of any member hand its seat to a successor).
func (f *Graph) memorial(s *core.State, members []int) [][2]int {
	var added [][2]int
	var rec func(lo, hi int) int32 // arena id of the range's subtree root
	rec = func(lo, hi int) int32 {
		id := int32(len(f.vn))
		if hi-lo == 1 {
			m := members[lo]
			f.vn = append(f.vn, vnode{sim: int32(m), parent: -1, left: -1, right: -1})
			f.ensure(m)
			f.byReal[m] = append(f.byReal[m], id)
			return id
		}
		f.vn = append(f.vn, vnode{sim: -1, parent: -1, left: -1, right: -1})
		mid := lo + (hi-lo+1)/2
		l := rec(lo, mid)
		r := rec(mid, hi)
		f.vn[l].parent = id
		f.vn[r].parent = id
		sim := f.vn[l].sim // leftmost leaf descendant's simulator
		f.vn[id].sim = sim
		f.vn[id].left = l
		f.vn[id].right = r
		f.ensure(int(sim))
		f.byReal[sim] = append(f.byReal[sim], id)
		a, b := int(sim), int(f.vn[r].sim)
		if a != b && s.AddHealingEdge(a, b) {
			added = append(added, [2]int{a, b})
		}
		return id
	}
	rec(0, len(members))
	return added
}

// orphan abandons the virtual roles of nodes that died with no
// surviving neighbor: their subtrees' other simulators, if any still
// live, are in different components by definition.
func (f *Graph) orphan(cluster []core.Deletion) {
	for _, d := range cluster {
		x := d.Node
		if x >= len(f.byReal) {
			continue
		}
		for _, id := range f.byReal[x] {
			f.vn[id].sim = -1
		}
		f.byReal[x] = nil
	}
}

func sortInt32Desc(xs []int32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] > xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
