// Package modelcheck exhaustively enumerates message delivery orders of
// the pipelined distributed healer on small configurations and asserts
// that every interleaving converges to the exact sequential core result
// — the correctness foundation under the epoch pipeline's claim that
// overlapping heal epochs commute with everything outside their
// conflict regions.
//
// The unit of nondeterminism is the same one the runtime has: which
// non-empty (receiver, sender) channel delivers its oldest message next
// (per-sender FIFO is a transport guarantee; cross-sender interleaving
// at each receiver is not). All of a configuration's operations are
// issued up front, so the enumeration covers maximal epoch overlap —
// including every schedule where a second deletion's epoch runs while a
// prior MINID flood is still draining.
//
// One search loop serves two simulators. A fault-free configuration
// runs on dist.Sim. A configuration with a drop, duplicate or crash
// budget runs on dist.FaultSim, so the nondeterminism also includes
// budgeted frame drops, duplicates, retransmissions, and
// supervisor-granted fail-stops, interleaved every possible way with
// protocol deliveries. Both expose the same method set (Enabled, Apply,
// Fingerprint, Quiet, Network), and the checker is generic over it.
// FaultSim with zero budgets reaches exactly Sim's states, but hashing
// its wire state makes it about a third slower, which is why fault-free
// configurations stay on Sim.
//
// The search is a depth-first walk of the schedule tree with
// state-identity pruning: Fingerprint hashes the complete
// behavior-relevant network state, and a schedule prefix that reaches
// an already-visited state is cut off. Commuting deliveries reach the
// same state by definition, so this is a partial-order reduction in
// effect (keyed on reached states rather than a static independence
// relation) — without it even six-node configurations are intractable;
// with it they enumerate in seconds.
//
// The oracle is dist.Network.Diverges against a sequential state. A
// terminal where no crash fired must equal core applied to the
// operations in issue order. A crash rewrites history (an aborted kill
// never heals; the recovery heals the crashed set as one batch), so a
// crashed terminal must instead equal the sequential replay of the
// network's own effective-operation log (dist.ReplayEffective).
// Distinct schedules that crash differently reach different effective
// logs; each log's oracle is built once and cached. Drops, duplicates,
// and retransmissions do NOT change the oracle — the reliable channel
// delivers every message exactly once in per-sender order regardless —
// which is precisely the hardening claim the faulty mode proves on
// small configurations.
//
// What a passing run proves, and what it does not: every schedule of
// the given operations on the given graph — up to Budget distinct
// states, and the run errors out rather than passing if the budget
// truncates the search — reaches the bit-identical G, G′, labels, δ,
// and Lemma 9 flood accounting of its oracle. It says nothing about
// other graphs, other operation mixes, or configurations larger than
// enumeration reaches; the randomized differential harness
// (scenario.ReplayDifferential at window DefaultDiffWindow) covers that scale,
// with this package as the ground truth for why its oracle is the
// sequential engine.
package modelcheck

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/rng"
)

// DefaultBudget is the distinct-state ceiling when Config.Budget is 0.
const DefaultBudget = 2_000_000

// OpKind selects an operation type.
type OpKind int

const (
	// OpKill deletes one node and heals.
	OpKill OpKind = iota
	// OpJoin attaches a new node to Attach.
	OpJoin
	// OpBatch deletes Batch simultaneously and heals per cluster.
	OpBatch
)

// Op is one operation of a configuration, applied to the sequential
// engine in slice order and issued to the pipelined network up front.
type Op struct {
	Kind   OpKind
	Victim int   // OpKill
	Batch  []int // OpBatch
	Attach []int // OpJoin
}

func (op Op) String() string {
	switch op.Kind {
	case OpKill:
		return fmt.Sprintf("kill(%d)", op.Victim)
	case OpJoin:
		return fmt.Sprintf("join(%v)", op.Attach)
	case OpBatch:
		return fmt.Sprintf("batch(%v)", op.Batch)
	}
	return "unknown"
}

// Config is one model-checking run.
type Config struct {
	// Graph builds the (small!) starting topology. Called for the
	// sequential oracles and once per simulated replay.
	Graph func() *graph.Graph
	// Seed feeds the initial-ID assignment (drawn exactly as
	// core.NewState draws them, so the two engines agree on IDs).
	Seed uint64
	// Healer selects DASH or SDASH on both engines.
	Healer dist.HealerKind
	// Ops is the operation mix; all are issued up front.
	Ops []Op
	// Budget bounds the number of distinct states explored; 0 means
	// DefaultBudget. Exceeding the budget is an error — a truncated
	// search proves nothing and must not read as a pass.
	Budget int

	// Drops and Dups bound how many wire frames each schedule may
	// drop / duplicate.
	Drops int
	Dups  int
	// Crashes bounds fail-stops per schedule; CrashTargets lists the
	// nodes a crash event may name (nil: no crash events).
	Crashes      int
	CrashTargets []int
}

// Result summarizes an exhaustive run.
type Result struct {
	States     int // distinct states visited
	Terminals  int // distinct terminal states, all verified against core
	Deliveries int // events applied, including replay overhead
	MaxDepth   int // longest schedule
	// CrashedTerminals counts terminal states in which at least one
	// crash actually fired. A leader-crash config must end with this
	// non-zero, or the schedule space never exercised recovery.
	CrashedTerminals int
	// Oracles counts distinct effective-operation logs seen across
	// terminals (1 when no crash ever fires; more when crashes rewrite
	// history differently in different schedules).
	Oracles int
}

// Run enumerates every schedule of cfg — protocol deliveries, and
// fault events when cfg has a fault budget — and verifies each terminal
// state against its sequential oracle. A non-nil error either names the
// first diverging schedule or reports a truncated (budget-exceeded)
// search.
func Run(cfg Config) (Result, error) {
	if cfg.Drops == 0 && cfg.Dups == 0 && cfg.Crashes == 0 {
		return search(cfg, cfg.Healer.Healer(), sim(cfg))
	}
	return search(cfg, cfg.Healer.Healer(), faultSim(cfg))
}

// sim builds cfg's fault-free simulators.
func sim(cfg Config) func(*graph.Graph, []uint64) *dist.Sim {
	return func(g *graph.Graph, ids []uint64) *dist.Sim {
		return dist.NewSim(g, ids, cfg.Healer)
	}
}

// faultSim builds cfg's simulators on the hostile wire.
func faultSim(cfg Config) func(*graph.Graph, []uint64) *dist.FaultSim {
	opts := dist.FaultOpts{
		DropBudget:   cfg.Drops,
		DupBudget:    cfg.Dups,
		CrashBudget:  cfg.Crashes,
		CrashTargets: cfg.CrashTargets,
	}
	return func(g *graph.Graph, ids []uint64) *dist.FaultSim {
		return dist.NewFaultSim(g, ids, cfg.Healer, opts)
	}
}

// simulator is the method set dist.Sim and dist.FaultSim share; E is
// the simulator's event type.
type simulator[E any] interface {
	Network() *dist.Network
	Enabled() []E
	Apply(E)
	Quiet() bool
	Fingerprint() [16]byte
}

// search runs the one exhaustive search over simulators from newSim,
// with healer, which should mirror cfg.Healer, on the sequential side.
func search[S simulator[E], E any](cfg Config, healer core.Healer, newSim func(*graph.Graph, []uint64) S) (Result, error) {
	c := &checker[S, E]{cfg: cfg, newSim: newSim, budget: cfg.Budget}
	if c.budget == 0 {
		c.budget = DefaultBudget
	}

	// Sequential oracle: apply the ops in issue order, capturing the
	// initial IDs (including each joiner's) the simulated runs must use.
	// Joins never move in an effective log, so the join-ID draw order is
	// the same in every effective replay too.
	g := cfg.Graph()
	c.healer = healer
	c.issued = core.NewState(g.Clone(), rng.New(cfg.Seed))
	c.ids = make([]uint64, g.N())
	for v := range c.ids {
		c.ids[v] = c.issued.InitID(v)
	}
	joinR := rng.New(cfg.Seed + 1)
	for _, op := range cfg.Ops {
		switch op.Kind {
		case OpKill:
			c.issued.DeleteAndHeal(op.Victim, healer)
		case OpJoin:
			v := c.issued.Join(op.Attach, joinR)
			c.joinIDs = append(c.joinIDs, c.issued.InitID(v))
		case OpBatch:
			c.issued.DeleteBatchAndHeal(op.Batch)
		}
	}

	c.visited = make(map[[16]byte]struct{})
	c.oracles = make(map[string]*core.State)
	root, eps := c.build()
	err := c.dfs(root, eps, nil)
	c.res.Oracles = len(c.oracles)
	return c.res, err
}

type checker[S simulator[E], E any] struct {
	cfg     Config
	newSim  func(*graph.Graph, []uint64) S
	healer  core.Healer
	issued  *core.State // cfg.Ops applied in issue order
	ids     []uint64
	joinIDs []uint64
	visited map[[16]byte]struct{}
	oracles map[string]*core.State // by effective-operation log
	budget  int
	res     Result
}

// build assembles a fresh simulated network with every op issued.
func (c *checker[S, E]) build() (S, []*dist.Epoch) {
	s := c.newSim(c.cfg.Graph(), c.ids)
	nw := s.Network()
	eps := make([]*dist.Epoch, 0, len(c.cfg.Ops))
	ji := 0
	for _, op := range c.cfg.Ops {
		switch op.Kind {
		case OpKill:
			eps = append(eps, nw.KillAsync(op.Victim))
		case OpJoin:
			_, ep := nw.JoinAsync(op.Attach, c.joinIDs[ji])
			ji++
			eps = append(eps, ep)
		case OpBatch:
			eps = append(eps, nw.KillBatchAsync(op.Batch))
		}
	}
	return s, eps
}

// replay rebuilds the state a schedule prefix reaches. The search pays
// this rebuild when it branches; combined with fingerprint pruning it
// is far cheaper than deep-copying the full actor state at every node.
func (c *checker[S, E]) replay(prefix []E) (S, []*dist.Epoch) {
	s, eps := c.build()
	for _, ev := range prefix {
		s.Apply(ev)
		c.res.Deliveries++
	}
	return s, eps
}

func (c *checker[S, E]) dfs(s S, eps []*dist.Epoch, prefix []E) error {
	fp := s.Fingerprint()
	if _, seen := c.visited[fp]; seen {
		return nil
	}
	if len(c.visited) >= c.budget {
		return fmt.Errorf("modelcheck: interleaving budget %d exceeded — enumeration is NOT exhaustive; raise Config.Budget", c.budget)
	}
	c.visited[fp] = struct{}{}
	c.res.States = len(c.visited)
	if len(prefix) > c.res.MaxDepth {
		c.res.MaxDepth = len(prefix)
	}

	evs := s.Enabled()
	if len(evs) == 0 {
		c.res.Terminals++
		return c.verify(s, eps, prefix)
	}
	for i, ev := range evs {
		child, ceps := s, eps
		if i < len(evs)-1 {
			// Branch: rebuild the prefix state. The final branch reuses
			// the live state, since nothing rereads it afterwards.
			child, ceps = c.replay(prefix)
		}
		child.Apply(ev)
		c.res.Deliveries++
		next := make([]E, len(prefix)+1)
		copy(next, prefix)
		next[len(prefix)] = ev
		if err := c.dfs(child, ceps, next); err != nil {
			return err
		}
	}
	return nil
}

// oracle returns the sequential state a terminal of nw must equal: the
// issue-order replay when no crash fired, else the replay of nw's
// effective-operation log, built once per distinct log.
func (c *checker[S, E]) oracle(nw *dist.Network) (*core.State, error) {
	ops := nw.EffectiveOps()
	sig := fmt.Sprint(ops)
	if st, ok := c.oracles[sig]; ok {
		return st, nil
	}
	st := c.issued
	if nw.CrashCount() > 0 {
		st = core.NewState(c.cfg.Graph(), rng.New(c.cfg.Seed))
		if err := dist.ReplayEffective(st, ops, c.healer, rng.New(c.cfg.Seed+1)); err != nil {
			return nil, err
		}
	}
	c.oracles[sig] = st
	return st, nil
}

// verify checks a terminal state bit for bit against its oracle:
// topology, healing overlay, labels, δ, and flood accounting.
func (c *checker[S, E]) verify(s S, eps []*dist.Epoch, prefix []E) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("modelcheck: schedule %v: %s", prefix, fmt.Sprintf(format, args...))
	}
	nw := s.Network()
	if !s.Quiet() {
		return fail("no schedulable event but traffic still in flight:\n%s", nw.DumpState())
	}
	for i, ep := range eps {
		if !ep.Done() {
			return fail("op %d (%v, epoch %d) never completed:\n%s",
				i, c.cfg.Ops[i], ep.ID(), nw.DumpState())
		}
	}
	if nw.CrashCount() > 0 {
		c.res.CrashedTerminals++
	}
	seq, err := c.oracle(nw)
	if err == nil {
		err = nw.Diverges(seq)
	}
	if err != nil {
		return fail("%v", err)
	}
	return nil
}
