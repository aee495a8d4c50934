package scenario

import (
	"repro/internal/attack"
	"repro/internal/core"
)

// HealObserver is an optional VictimPolicy extension: the runner feeds
// implementing policies every mutation that can raise a node's degree —
// the endpoints of healed edges and a join's wiring — so a policy can
// keep its own incremental state instead of rescanning the graph per
// pick. Degree drops (a deletion's neighbors losing edges) are not
// reported; policies must tolerate them lazily.
type HealObserver interface {
	// ObserveHeal fires after a deletion or batch-kill event healed,
	// with the edges newly added to G.
	ObserveHeal(s *core.State, added [][2]int)
	// ObserveJoin fires after node v joined, attached to attach.
	ObserveJoin(s *core.State, v int, attach []int)
}

// NewMaxDegree returns the MaxNode victim policy: attack.MaxDegree,
// which picks through G.MaxDegreeNode's graph-owned index, so a pick
// costs O(heal) rather than O(n) and MaxNode runs scale to 10⁵–10⁶
// nodes.
func NewMaxDegree() VictimPolicy { return FromAttack{S: attack.MaxDegree{}} }
