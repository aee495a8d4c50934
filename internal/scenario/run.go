package scenario

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/stats"
)

// AliveSet is an incrementally maintained set of alive nodes supporting
// O(1) uniform sampling, membership, insertion, and removal (swap-delete
// over a dense list). The runner keeps it in sync with the graph so
// victim selection never scans all n nodes per event.
type AliveSet struct {
	list []int32
	pos  []int32 // node -> index in list, -1 when absent
}

// NewAliveSet indexes the alive nodes of g.
func NewAliveSet(g *graph.Graph) *AliveSet {
	a := &AliveSet{pos: make([]int32, g.N())}
	for i := range a.pos {
		a.pos[i] = -1
	}
	for _, v := range g.AliveNodes() {
		a.Add(v)
	}
	return a
}

// Len returns the number of members.
func (a *AliveSet) Len() int { return len(a.list) }

// Contains reports membership.
func (a *AliveSet) Contains(v int) bool {
	return v >= 0 && v < len(a.pos) && a.pos[v] >= 0
}

// Add inserts v (idempotently).
func (a *AliveSet) Add(v int) {
	for len(a.pos) <= v {
		a.pos = append(a.pos, -1)
	}
	if a.pos[v] >= 0 {
		return
	}
	a.pos[v] = int32(len(a.list))
	a.list = append(a.list, int32(v))
}

// Remove deletes v (idempotently) by swapping the last member into its
// slot.
func (a *AliveSet) Remove(v int) {
	if !a.Contains(v) {
		return
	}
	i := a.pos[v]
	last := a.list[len(a.list)-1]
	a.list[i] = last
	a.pos[last] = i
	a.list = a.list[:len(a.list)-1]
	a.pos[v] = -1
}

// Random returns a uniform member. It panics on an empty set.
func (a *AliveSet) Random(r *rng.RNG) int {
	return int(a.list[r.Intn(len(a.list))])
}

// RandomDistinct returns min(k, Len()) distinct uniform members in draw
// order: it draws with Random and rejects repeats. Every join's attach
// set comes from here, so the sequential runner, the sharded runner and
// the server consume their RNG streams identically.
func (a *AliveSet) RandomDistinct(k int, r *rng.RNG) []int {
	k = min(k, a.Len())
	out := make([]int, 0, k)
	for len(out) < k {
		if u := a.Random(r); !slices.Contains(out, u) {
			out = append(out, u)
		}
	}
	return out
}

// VictimPolicy chooses deletion victims for OpDelete events. A fresh
// policy value is used per trial (policies may be stateful). Returning
// attack.NoTarget — or a node that is not alive — marks the trial
// exhausted: the runner skips every remaining OpDelete event instead of
// invoking the healer on a dead node.
type VictimPolicy interface {
	// Name identifies the policy in tables.
	Name() string
	// Pick returns the next victim or attack.NoTarget.
	Pick(s *core.State, alive *AliveSet, r *rng.RNG) int
}

// Uniform deletes a uniformly random alive node in O(1) per pick — the
// only policy cheap enough for 10⁵+-node schedules with many deletions.
type Uniform struct{}

// Name implements VictimPolicy.
func (Uniform) Name() string { return "Uniform" }

// Pick implements VictimPolicy.
func (Uniform) Pick(_ *core.State, alive *AliveSet, r *rng.RNG) int {
	if alive.Len() == 0 {
		return attack.NoTarget
	}
	return alive.Random(r)
}

// FromAttack adapts an attack.Strategy to a VictimPolicy, so the paper's
// adversaries (MaxDegree, NeighborOfMax, CutVertex, …) can drive
// scenario deletions. attack.MaxDegree and NeighborOfMax pick through
// G.MaxDegreeNode's graph-owned index, O(heal) per pick, so they scale
// to 10⁵–10⁶ nodes. Random and MinDegree still walk every
// node slot per pick and CutVertex runs an O(n+m) search, so those are
// for moderate sizes; at 10⁵+ use Uniform.
type FromAttack struct{ S attack.Strategy }

// Name implements VictimPolicy.
func (a FromAttack) Name() string { return a.S.Name() }

// Pick implements VictimPolicy.
func (a FromAttack) Pick(s *core.State, _ *AliveSet, r *rng.RNG) int {
	return a.S.Next(s, r)
}

// Config describes one scenario experiment cell.
type Config struct {
	// NewGraph builds the initial topology per trial.
	NewGraph func(r *rng.RNG) *graph.Graph
	// Schedule is the declarative workload; it is compiled once per Run.
	Schedule Schedule
	// Healer heals every deletion (single deletions through Healer.Heal,
	// batch kills through the healer's own core.BatchHealer rule when it
	// has one, else the batch-DASH rule). Stateful healers (core.PerState)
	// are instanced per trial via core.InstanceFor.
	Healer core.Healer
	// NewVictim builds the per-trial deletion policy; nil means Uniform.
	NewVictim func() VictimPolicy
	// Trials, Seed, Workers: trial RNGs are pre-split from Seed in trial
	// order (par.ForEachTrial), so results are bit-identical at any
	// worker count; Workers <= 0 uses every CPU.
	Trials  int
	Seed    uint64
	Workers int
	// MeasureEvery takes a metrics checkpoint every k events (plus once
	// at the end); 0 measures only at the end, negative disables
	// checkpoints entirely.
	MeasureEvery int
	// SampleThreshold is the alive-node count at or above which
	// checkpoints use sampled metrics (0 = metrics.DefaultSampleThreshold).
	SampleThreshold int
	// SampleSources is the BFS source count k for sampled metrics
	// (0 = metrics.DefaultSampleSources).
	SampleSources int
	// TrackConnectivity verifies, incrementally, that the network stays
	// connected after every event.
	TrackConnectivity bool
	// ConnectivityEvery is the ConnTracker check cadence: <= 1 verifies
	// after every deletion event; k > 1 accumulates boundary witnesses
	// and verifies every k-th (sound for the latched always-connected
	// verdict, but transient partitions inside a window go unobserved
	// and FirstBreak reports the flush event). A healed check stays
	// near the wound, so cadence 1 is practical even at n = 10⁶; a
	// cadence still saves the few hops that witnesses the healer did
	// not wire to each other search before they meet.
	ConnectivityEvery int
	// Observe, when non-nil, is called once per trial right after the
	// state is constructed — e.g. to trace.Attach a recorder.
	Observe func(trial int, s *core.State)

	// Shards, when > 0, runs trials on the sharded commit path:
	// region-disjoint kills and joins commit concurrently on
	// CommitWorkers goroutines through core.ShardScheduler (batch
	// kills and checkpoints run at barriers). Results are bit-identical
	// to the sequential path. Requires a DASH/SDASH healer and Uniform
	// victims, and is incompatible with TrackConnectivity and Observe
	// (per-event observation assumes a single mutator); Run returns an
	// error otherwise. The shard count is rounded up to a power of two.
	Shards int
	// CommitWorkers is the concurrent commit goroutine count when
	// Shards > 0 (0 = all CPUs). Unlike Workers (which parallelizes
	// across trials), this parallelizes within a trial.
	CommitWorkers int
	// ObserveLatency, when non-nil, receives each kill's and join's
	// submission-to-commit latency. On the sharded path it is called
	// from commit workers, so it must be safe for concurrent use.
	ObserveLatency func(time.Duration)
}

// Checkpoint is one metrics measurement within a trial.
type Checkpoint struct {
	Event     int  `json:"event"` // events executed when the checkpoint was taken
	Phase     int  `json:"phase"` // phase index of the last executed event
	Alive     int  `json:"alive"`
	Edges     int  `json:"edges"`
	PeakDelta int  `json:"peak_delta"`
	Connected bool `json:"connected"`

	Stretch  metrics.SampledResult    `json:"-"`
	Diameter metrics.DiameterEstimate `json:"-"`

	// Flattened copies of the interesting estimator fields, so a
	// checkpoint marshals to one self-contained JSONL record.
	MaxStretch  float64 `json:"max_stretch"`
	MeanStretch float64 `json:"mean_stretch"`
	StretchLo   float64 `json:"stretch_lo"`
	StretchHi   float64 `json:"stretch_hi"`
	DiameterLB  int     `json:"diameter_lb"`
	Sampled     bool    `json:"sampled"`
}

// TrialResult is the outcome of one schedule execution.
type TrialResult struct {
	N      int // initial alive nodes
	Events int // events executed (including quiet ones)

	Deletes      int // single deletions performed
	Surrogations int // single deletions SDASH healed with a star
	Inserts      int // nodes joined
	BatchKills   int // batch-kill events performed
	Killed       int // nodes removed by batch kills
	EdgesAdded   int // healing edges added to G

	PeakDelta  int
	FinalAlive int
	FinalEdges int

	AlwaysConnected bool
	FirstBreak      int // event index of first disconnection, -1

	// Exhausted reports that victim selection returned NoTarget (or an
	// invalid victim) mid-schedule; the remaining deletion events were
	// skipped.
	Exhausted bool

	// SampledMetrics reports whether this trial's checkpoints were
	// estimates rather than exact measurements.
	SampledMetrics bool

	MaxStretch  float64
	MeanStretch float64

	Checkpoints []Checkpoint
}

// Result aggregates a scenario cell over its trials.
type Result struct {
	Schedule   string
	HealerName string
	VictimName string
	Events     int
	Trials     []TrialResult

	PeakDelta  stats.Summary
	MaxStretch stats.Summary
	EdgesAdded stats.Summary
	FinalAlive stats.Summary
}

// Run compiles the schedule and executes it over cfg.Trials independent
// instances on the deterministic worker pool.
func Run(cfg Config) (Result, error) {
	if cfg.NewGraph == nil || cfg.Healer == nil {
		return Result{}, fmt.Errorf("scenario: Config needs NewGraph and Healer")
	}
	events, err := cfg.Schedule.Compile()
	if err != nil {
		return Result{}, err
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 1
	}
	newVictim := cfg.NewVictim
	if newVictim == nil {
		newVictim = func() VictimPolicy { return Uniform{} }
	}
	trial := runTrial
	if cfg.Shards > 0 {
		if err := validateSharded(cfg, newVictim()); err != nil {
			return Result{}, err
		}
		trial = runTrialSharded
	}
	res := Result{
		Schedule:   cfg.Schedule.Name,
		HealerName: cfg.Healer.Name(),
		VictimName: newVictim().Name(),
		Events:     len(events),
		Trials:     make([]TrialResult, trials),
	}
	master := rng.New(cfg.Seed)
	par.ForEachTrial(trials, master, cfg.Workers, func(i int, tr *rng.RNG) {
		res.Trials[i] = trial(cfg, events, newVictim(), i, tr)
	})
	agg := func(f func(TrialResult) float64) stats.Summary {
		xs := make([]float64, len(res.Trials))
		for i, t := range res.Trials {
			xs[i] = f(t)
		}
		return stats.Summarize(xs)
	}
	res.PeakDelta = agg(func(t TrialResult) float64 { return float64(t.PeakDelta) })
	res.MaxStretch = agg(func(t TrialResult) float64 { return t.MaxStretch })
	res.EdgesAdded = agg(func(t TrialResult) float64 { return float64(t.EdgesAdded) })
	res.FinalAlive = agg(func(t TrialResult) float64 { return float64(t.FinalAlive) })
	return res, nil
}

// trialRun is the per-trial execution state, factored out so the
// differential tests can drive a trial event by event.
type trialRun struct {
	cfg    Config
	events []Event
	victim VictimPolicy
	healer core.Healer // per-trial instance of cfg.Healer (core.InstanceFor)

	s     *core.State
	alive *AliveSet
	conn  *ConnTracker
	auto  *metrics.AutoStretch

	victimR  *rng.RNG
	opR      *rng.RNG
	measureR *rng.RNG

	res TrialResult

	// measuredAt is the graphVersion of the last exact stretch sweep
	// (-1 before the first): a checkpoint at the same version reuses
	// that sweep's result.
	measuredAt int

	// scratch
	nbrScratch []int        // a deletion's or a ball's G neighbour lists
	ballRegion graph.Region // the ball walks' scratch
}

// newTrialRun builds one trial's state from its pre-split generator.
func newTrialRun(cfg Config, events []Event, victim VictimPolicy, trial int, tr *rng.RNG) *trialRun {
	graphR := tr.Split()
	stateR := tr.Split()
	victimR := tr.Split()
	opR := tr.Split()
	measureR := tr.Split()

	g := cfg.NewGraph(graphR)
	s := core.NewState(g, stateR)
	if cfg.Observe != nil {
		cfg.Observe(trial, s)
	}
	t := &trialRun{
		cfg: cfg, events: events, victim: victim,
		healer: core.InstanceFor(cfg.Healer),
		s:      s, alive: NewAliveSet(s.G),
		victimR: victimR, opR: opR, measureR: measureR,
		measuredAt: -1,
		res: TrialResult{
			N: s.G.NumAlive(), AlwaysConnected: true, FirstBreak: -1,
			MaxStretch: 1, MeanStretch: 1,
		},
	}
	if cfg.MeasureEvery >= 0 {
		t.auto = metrics.NewAutoStretch(s.G, cfg.SampleThreshold, cfg.SampleSources, measureR)
		t.res.SampledMetrics = t.auto.Sampled()
	}
	if cfg.TrackConnectivity {
		t.conn = NewConnTracker(s.G, cfg.ConnectivityEvery)
	}
	return t
}

// step executes event index i. It returns false once every event has
// been executed.
func (t *trialRun) step() bool {
	i := t.res.Events
	if i >= len(t.events) {
		return false
	}
	ev := t.events[i]
	switch ev.Kind {
	case OpQuiet:
		// nothing to mutate
	case OpDelete:
		t.doDelete(i)
	case OpInsert:
		t.doInsert(ev.Size)
	case OpBatchKill:
		t.doBatchKill(i, ev.Size)
	}
	t.res.Events++
	if t.cfg.MeasureEvery > 0 && t.res.Events%t.cfg.MeasureEvery == 0 && t.res.Events < len(t.events) {
		t.checkpoint(ev.Phase)
	}
	if t.res.Events == len(t.events) && t.cfg.MeasureEvery >= 0 {
		t.checkpoint(ev.Phase)
	}
	return t.res.Events < len(t.events)
}

// doDelete picks one victim, heals its removal, and maintains the
// incremental peak-δ and connectivity accounting.
func (t *trialRun) doDelete(event int) {
	if t.res.Exhausted {
		return
	}
	v := t.victim.Pick(t.s, t.alive, t.victimR)
	if v == attack.NoTarget || !t.s.G.Alive(v) {
		// NoTarget mid-scenario (or a policy bug handing us a dead
		// node): never invoke the healer on a dead node — skip every
		// remaining deletion instead.
		t.res.Exhausted = true
		return
	}
	if t.conn != nil {
		t.nbrScratch = t.s.G.AppendNeighbors(t.nbrScratch[:0], v)
	}
	t.alive.Remove(v)
	var start time.Time
	if t.cfg.ObserveLatency != nil {
		start = time.Now()
	}
	hr := t.s.DeleteAndHeal(v, t.healer)
	if t.cfg.ObserveLatency != nil {
		t.cfg.ObserveLatency(time.Since(start))
	}
	t.res.Deletes++
	if hr.Surrogated {
		t.res.Surrogations++
	}
	t.res.EdgesAdded += len(hr.Added)
	t.res.PeakDelta = t.s.PeakDeltaEdges(t.res.PeakDelta, hr.Added)
	t.noteHeal(hr.Added)
	if t.conn != nil {
		t.conn.AfterDelete(t.s.G, t.nbrScratch, event)
	}
}

// doInsert joins one node to size distinct random alive targets.
func (t *trialRun) doInsert(size int) {
	attach := t.alive.RandomDistinct(size, t.opR)
	var start time.Time
	if t.cfg.ObserveLatency != nil {
		start = time.Now()
	}
	v := t.s.Join(attach, t.opR)
	if t.cfg.ObserveLatency != nil {
		t.cfg.ObserveLatency(time.Since(start))
	}
	t.alive.Add(v)
	t.res.Inserts++
	if obs, ok := t.victim.(HealObserver); ok {
		obs.ObserveJoin(t.s, v, attach)
	}
	// The attach targets each gained a G edge; δ can only have risen
	// there (the newcomer itself starts at δ = 0).
	t.res.PeakDelta = t.s.PeakDelta(t.res.PeakDelta, attach...)
	if t.conn != nil {
		t.conn.AfterJoin(t.s.G, len(attach), t.res.Events)
	}
}

// doBatchKill removes a correlated BFS ball and heals it batch-style.
func (t *trialRun) doBatchKill(event, size int) {
	if t.alive.Len() == 0 {
		return
	}
	batch := t.sampleBall(size)
	if t.conn != nil {
		// The ball's neighbour lists, members and repeats included: the
		// tracker skips dead and duplicate witnesses itself.
		t.nbrScratch = t.nbrScratch[:0]
		for _, v := range batch {
			t.nbrScratch = t.s.G.AppendNeighbors(t.nbrScratch, v)
		}
	}
	for _, v := range batch {
		t.alive.Remove(v)
	}
	hr := t.s.DeleteBatchAndHealWith(batch, t.healer)
	t.res.BatchKills++
	t.res.Killed += len(batch)
	t.res.EdgesAdded += len(hr.Added)
	t.res.PeakDelta = t.s.PeakDeltaEdges(t.res.PeakDelta, hr.Added)
	t.noteHeal(hr.Added)
	if t.conn != nil {
		t.conn.AfterBatch(t.s.G, t.nbrScratch, event)
	}
}

// sampleBall collects up to size alive nodes forming a BFS ball around a
// random epicenter — the correlated-failure shape of a rack or region
// going down. If the epicenter's component is smaller than size, the
// whole component dies.
func (t *trialRun) sampleBall(size int) []int {
	return t.s.G.BFSBall(&t.ballRegion, t.alive.Random(t.opR), size)
}

// noteHeal forwards freshly added healing edges to a HealObserver victim
// policy (degree rises are exactly these endpoints).
func (t *trialRun) noteHeal(added [][2]int) {
	if len(added) == 0 {
		return
	}
	if obs, ok := t.victim.(HealObserver); ok {
		obs.ObserveHeal(t.s, added)
	}
}

// checkpoint records a metrics measurement.
func (t *trialRun) checkpoint(phase int) {
	cp := Checkpoint{
		Event:     t.res.Events,
		Phase:     phase,
		Alive:     t.s.G.NumAlive(),
		Edges:     t.s.G.NumEdges(),
		PeakDelta: t.res.PeakDelta,
		Connected: true,
	}
	if t.conn != nil {
		// Settle any deferred witnesses so the checkpoint tells the truth.
		t.conn.Flush(t.s.G, t.res.Events)
		cp.Connected = t.conn.StillConnected()
	}
	if t.auto != nil && t.s.G.NumAlive() >= 2 {
		t.measure(&cp)
		cp.MaxStretch = cp.Stretch.Max
		cp.MeanStretch = cp.Stretch.Mean
		cp.StretchLo = cp.Stretch.MeanLo
		cp.StretchHi = cp.Stretch.MeanHi
		cp.DiameterLB = cp.Diameter.Diameter
		cp.Sampled = cp.Stretch.Sampled
		if cp.Stretch.Max > t.res.MaxStretch {
			t.res.MaxStretch = cp.Stretch.Max
			t.res.MeanStretch = cp.Stretch.Mean
		}
	}
	t.res.Checkpoints = append(t.res.Checkpoints, cp)
}

// measure fills cp's stretch and diameter. An exact sweep draws no
// randomness, so when the graph has not changed since the last one (a
// victim policy that ran out leaves the rest of the trial's cadence
// checkpoints on one graph) its result is reused instead of re-swept.
// Sampled checkpoints always measure, keeping their RNG draws.
func (t *trialRun) measure(cp *Checkpoint) {
	v := graphVersion(t.s.G)
	if last := len(t.res.Checkpoints) - 1; !t.auto.Sampled() && v == t.measuredAt {
		cp.Stretch, cp.Diameter = t.res.Checkpoints[last].Stretch, t.res.Checkpoints[last].Diameter
		return
	}
	cp.Stretch, cp.Diameter = t.auto.Checkpoint(t.s.G, t.measureR)
	t.measuredAt = v
}

// graphVersion changes with every mutation a trial makes: slots are
// never reused and the dead never return, so the slot count and the
// dead count only grow, and every delete, batch kill or join grows one
// of them.
func graphVersion(g *graph.Graph) int { return 2*g.N() - g.NumAlive() }

// finish completes the trial's bookkeeping and returns the result.
func (t *trialRun) finish() TrialResult {
	t.res.FinalAlive = t.s.G.NumAlive()
	t.res.FinalEdges = t.s.G.NumEdges()
	if t.conn != nil {
		t.conn.Flush(t.s.G, t.res.Events)
		t.res.AlwaysConnected = t.conn.StillConnected()
		t.res.FirstBreak = t.conn.FirstBreak()
	}
	return t.res
}

func runTrial(cfg Config, events []Event, victim VictimPolicy, trial int, tr *rng.RNG) TrialResult {
	t := newTrialRun(cfg, events, victim, trial, tr)
	for t.step() {
	}
	return t.finish()
}

// String renders a one-line summary of the aggregate.
func (r Result) String() string {
	return fmt.Sprintf("%s×%s on %q: %d events, peak δ %.2f±%.2f, stretch %.2f, final alive %.0f",
		r.HealerName, r.VictimName, r.Schedule, r.Events,
		r.PeakDelta.Mean, r.PeakDelta.Std, r.MaxStretch.Mean, r.FinalAlive.Mean)
}
