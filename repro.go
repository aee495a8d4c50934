// Package repro is a Go reproduction of Saia & Trehan, "Picking up the
// Pieces: Self-Healing in Reconfigurable Networks" (IPPS 2008): the DASH
// and SDASH self-healing algorithms, the naive baselines and adversaries
// of the paper's evaluation, a sequential experiment engine, and a fully
// distributed actor-per-node implementation.
//
// This root package is a thin facade over the implementation packages:
//
//	internal/graph       the dynamic-graph substrate. Adjacency is stored
//	                     CSR-style as one sorted []int32 per node:
//	                     Neighbors returns a zero-allocation read-only
//	                     view (deterministic order by construction),
//	                     HasEdge is a binary search, BFSInto runs
//	                     breadth-first search into caller-reused scratch,
//	                     and MultiBFSInto runs up to 64 sources in one
//	                     bit-parallel traversal (MS-BFS), writing
//	                     distance rows for a prefix of the sources and
//	                     eccentricities for all of them. Every stretch
//	                     and diameter sweep (AllDistances, Diameter,
//	                     internal/metrics) runs on MultiBFSInto; the
//	                     all-sources sweeps fan its 64-source batches out
//	                     across every CPU with results identical at any
//	                     parallelism
//	internal/core        DASH, SDASH, healing state, MINID flood, rem(v)
//	internal/baseline    GraphHeal, BinaryTreeHeal, LineHeal, DegreeHeal, NoHeal
//	internal/forgiving   ForgivingTree and ForgivingGraph, the successor
//	                     healers (Trehan, arXiv:1305.4675): half-full
//	                     trees of virtual nodes projected onto real
//	                     edges, bounding degree increase AND stretch
//	internal/attack      MaxNode, NeighborOfMax, Random, MinNode, LEVELATTACK
//	internal/gen         Barabási–Albert, k-ary trees, and other topologies
//	internal/scenario    the one trial loop: compiled event schedules
//	                     (deletions, joins, batch kills) driven through
//	                     any healer, with incremental connectivity and
//	                     peak-δ accounting; trials fan out across
//	                     Config.Workers goroutines (par.ForEachTrial)
//	                     with per-trial seeds pre-split in trial order,
//	                     so results are bit-identical to a serial run
//	                     at any worker count
//	internal/sim         the paper's delete→heal→measure method (§4.1)
//	                     as a one-phase Attrition schedule on scenario's
//	                     loop, folded into per-trial Trial records
//	internal/metrics     stretch and degree statistics; one stretch read
//	                     (AutoStretch.Checkpoint) measures stretch and
//	                     estimates the diameter in a single traversal
//	internal/dist        actor-per-node distributed DASH/SDASH, run on a
//	                     GOMAXPROCS worker pool: death
//	                     notices, locally elected leaders collecting heal
//	                     reports, attach orders with acks, hop-tagged MINID
//	                     label floods, and NoN gossip, with quiescence
//	                     detected by an in-flight message counter
//	internal/experiments the paper's figures/tables as table generators,
//	                     every one on scenario's trial loop
//	                     (experiments.Workers / figures -workers selects
//	                     the per-cell trial parallelism)
//
// Quick start:
//
//	g := repro.NewBAGraph(256, 3, 1)
//	sim := repro.NewSimulation(g, repro.DASH, repro.NeighborOfMax, 2)
//	for sim.Step() {
//	}
//	fmt.Println(sim.State.MaxDelta()) // ≤ 2·log₂(256) = 16
package repro

import (
	"fmt"
	"sort"

	"repro/internal/attack"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/forgiving"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Re-exported fundamental types, so downstream code can use the library
// through this package alone.
type (
	// Graph is the dynamic undirected graph all simulations run on.
	Graph = graph.Graph
	// State is a network mid-attack: topology, healing forest, labels, δ.
	State = core.State
	// Healer is a healing strategy (DASH, SDASH, or a baseline).
	Healer = core.Healer
	// Strategy is an attack strategy.
	Strategy = attack.Strategy
	// Config configures a batch experiment; see Run.
	Config = sim.Config
	// Result aggregates a batch experiment.
	Result = sim.Result
)

// NoTarget is returned by Strategy.Next when the attack has nothing
// left to delete; every harness loop must stop (or skip the remaining
// deletions) on it rather than hand the healer a dead node.
const NoTarget = attack.NoTarget

// The healing strategies of the paper.
var (
	// DASH is Algorithm 1: degree-based self-healing with the
	// 2·log₂ n degree-increase guarantee.
	DASH Healer = core.DASH{}
	// SDASH is Algorithm 3 exactly as printed: DASH plus surrogation
	// over the reconnection set.
	SDASH Healer = core.SDASH{}
	// SDASHFull is §4.6.2's prose semantics of surrogation: the
	// surrogate takes all of the deleted node's connections. Its
	// Figure 10 stretch stays within 7% of SDASH's (README's
	// "Reproducing the paper").
	SDASHFull Healer = core.SDASHFull{}
	// GraphHeal reconnects all neighbors, ignoring cycles (naive).
	GraphHeal Healer = baseline.GraphHeal{}
	// BinaryTreeHeal is component-aware but degree-blind.
	BinaryTreeHeal Healer = baseline.BinaryTreeHeal{}
	// LineHeal is the 2-degree-bounded line strategy of the prior work.
	LineHeal Healer = baseline.LineHeal{}
	// DegreeHeal is degree-aware but component-blind (ablation).
	DegreeHeal Healer = baseline.DegreeHeal{}
	// NoHeal performs no repair (control).
	NoHeal Healer = baseline.NoHeal{}
	// OracleDASH is DASH with a component oracle instead of ID
	// propagation — the paper's open-problem ablation. It heals
	// identically to DASH with zero label messages, but a real system
	// cannot implement its oracle locally.
	OracleDASH Healer = core.OracleDASH{}
	// ForgivingTree heals each deletion with a half-full tree over the
	// dead node's neighbors (Trehan's successor algorithm): balanced
	// repair, O(log d) detours, no cross-heal state.
	ForgivingTree Healer = forgiving.Tree{}
	// ForgivingGraph adds persistent virtual-node bookkeeping: heirs
	// inherit the dead node's virtual roles, so repair structures merge
	// over time instead of stacking. Stateful per network — harnesses
	// instantiate per trial via core.InstanceFor.
	ForgivingGraph Healer = forgiving.NewGraph()
)

// Attack strategy constructors (fresh value per run; some are stateful).
var (
	// MaxNode deletes the highest-degree node each round.
	MaxNode = func() Strategy { return attack.MaxDegree{} }
	// NeighborOfMax deletes a random neighbor of the highest-degree node.
	NeighborOfMax = func() Strategy { return attack.NeighborOfMax{} }
	// RandomAttack deletes a uniformly random node.
	RandomAttack = func() Strategy { return attack.Random{} }
	// MinNode deletes the lowest-degree node each round.
	MinNode = func() Strategy { return attack.MinDegree{} }
	// CutVertexAttack deletes articulation points first.
	CutVertexAttack = func() Strategy { return attack.CutVertex{} }
)

// HealerByName resolves a healing strategy from its table name.
func HealerByName(name string) (Healer, error) {
	for _, h := range AllHealers() {
		if h.Name() == name {
			return h, nil
		}
	}
	return nil, fmt.Errorf("repro: unknown healer %q (want one of %v)", name, HealerNames())
}

// AllHealers returns every available healing strategy, naive to smart.
func AllHealers() []Healer {
	return []Healer{NoHeal, GraphHeal, LineHeal, DegreeHeal, BinaryTreeHeal, DASH, SDASH, SDASHFull, OracleDASH, ForgivingTree, ForgivingGraph}
}

// HealerNames lists the valid HealerByName inputs, sorted.
func HealerNames() []string {
	out := make([]string, 0, len(AllHealers()))
	for _, h := range AllHealers() {
		out = append(out, h.Name())
	}
	sort.Strings(out)
	return out
}

// AttackByName resolves an attack constructor from its table name.
func AttackByName(name string) (func() Strategy, error) {
	all := map[string]func() Strategy{
		"MaxNode":       MaxNode,
		"NeighborOfMax": NeighborOfMax,
		"Random":        RandomAttack,
		"MinNode":       MinNode,
		"CutVertex":     CutVertexAttack,
	}
	if f, ok := all[name]; ok {
		return f, nil
	}
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("repro: unknown attack %q (want one of %v)", name, names)
}

// NewBAGraph builds a Barabási–Albert preferential-attachment graph with
// n nodes, m edges per arriving node, deterministically from seed — the
// power-law workload of the paper's experiments.
func NewBAGraph(n, m int, seed uint64) *Graph {
	return gen.BarabasiAlbert(n, m, rng.New(seed))
}

// Run executes a batch experiment (multiple trials, aggregated); see
// sim.Config for the knobs.
func Run(cfg Config) Result { return sim.Run(cfg) }

// BAGen returns a Config-compatible per-trial generator for
// Barabási–Albert graphs, so facade users never touch the internal RNG:
//
//	repro.Run(repro.Config{NewGraph: repro.BAGen(256, 3), Rounds: 256, ...})
func BAGen(n, m int) func(*rng.RNG) *Graph {
	return func(r *rng.RNG) *Graph { return gen.BarabasiAlbert(n, m, r) }
}

// Simulation drives a single network step by step — the interactive
// counterpart to Run.
type Simulation struct {
	// State is the live network; inspect it between steps.
	State *State
	// Healer repairs after every deletion.
	Healer Healer
	// Attack chooses each round's victim.
	Attack Strategy

	r    *rng.RNG
	last core.HealResult
}

// NewSimulation wraps g (taking ownership) with a healer and an attack.
// seed drives both the node-ID assignment and the attack's randomness.
// Stateful healers (core.PerState, e.g. ForgivingGraph) are instanced
// per simulation, so the same healer value can seed many Simulations.
func NewSimulation(g *Graph, h Healer, newAttack func() Strategy, seed uint64) *Simulation {
	master := rng.New(seed)
	return &Simulation{
		State:  core.NewState(g, master.Split()),
		Healer: core.InstanceFor(h),
		Attack: newAttack(),
		r:      master.Split(),
	}
}

// Step performs one attack-and-heal round. It reports false when the
// attack has finished or the network is empty.
func (s *Simulation) Step() bool {
	if s.State.G.NumAlive() == 0 {
		return false
	}
	v := s.Attack.Next(s.State, s.r)
	if v == attack.NoTarget {
		return false
	}
	s.last = s.State.DeleteAndHeal(v, s.Healer)
	return true
}

// LastHeal reports what the healer did on the most recent step.
func (s *Simulation) LastHeal() core.HealResult { return s.last }
