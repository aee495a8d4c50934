// Package server is the resident self-healing overlay daemon: a
// long-running HTTP service owning a live graph healed by DASH/SDASH,
// accepting concurrent join/leave/kill/batch-kill traffic from many
// client sessions, streaming every mutation as trace JSONL (the codec of
// internal/trace is the wire format, so any archived stream replays to
// the exact served topology), exposing δ/stretch samples and
// heal-latency histograms on /metrics, and supporting full-state
// snapshot/restore via internal/graphio.
//
// Concurrency model: one writer. Every mutating or consistency-requiring
// request is packaged as an op and serialized through a bounded queue
// into the apply loop, the only goroutine that touches the core.State.
// The queue bound is the backpressure mechanism: when it is full the
// HTTP layer answers 429 with a Retry-After estimate instead of queueing
// unboundedly — under overload the daemon degrades to pushback, never to
// collapse. Reads that tolerate staleness (counters, histograms) are
// atomics read without entering the queue.
//
// The event log is append-only per generation: subscribers stream
// log[from:] under a condition variable and never block the apply loop
// (appends publish a batch and broadcast). A restore starts a new
// generation — the old log no longer describes the new baseline, so
// live streams are ended cleanly and clients re-subscribe.
package server

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// DefaultQueueDepth bounds the op queue when Config.QueueDepth is unset.
const DefaultQueueDepth = 1024

// DefaultMaxRestoreNodes caps the node count a restore snapshot may
// declare when Config.MaxRestoreNodes is unset.
const DefaultMaxRestoreNodes = 4 << 20

// MaxAttachCount bounds a join's attach_count. Random attach targets are
// drawn by rejection sampling in the apply loop, so an unbounded count
// would stall every other session behind one request.
const MaxAttachCount = 1024

// Config parameterizes a daemon.
type Config struct {
	// Healer heals every deletion; nil means core.DASH{}.
	Healer core.Healer
	// QueueDepth bounds the op queue (backpressure trips beyond it);
	// <= 0 means DefaultQueueDepth.
	QueueDepth int
	// Seed drives all server-side randomness: victim picks, attach-target
	// picks, join IDs.
	Seed uint64
	// MaxRestoreNodes caps the size of snapshots the restore endpoint
	// accepts; <= 0 means DefaultMaxRestoreNodes.
	MaxRestoreNodes int
	// SampleSources is the BFS source count for on-demand stretch
	// sampling; <= 0 means metrics.DefaultSampleSources.
	SampleSources int
	// SampleThreshold follows metrics.NewAutoStretch; 0 means
	// metrics.DefaultSampleThreshold.
	SampleThreshold int

	// beforeApply, when non-nil, runs in the apply loop before each op —
	// a test hook for making the loop arbitrarily slow.
	beforeApply func()
}

// Server owns the live network. Create with New, serve via Handler, stop
// with Shutdown.
type Server struct {
	cfg    Config
	healer core.Healer

	ops       chan *op
	applyDone chan struct{}

	// gate serializes enqueuers against the drain flip: handlers hold it
	// R while checking draining and enqueueing; Shutdown holds it W only
	// to set the flag, so after Shutdown's flip no new op can enter.
	gate     sync.RWMutex
	draining bool

	// Apply-loop-owned state: only the apply goroutine touches these.
	st        *core.State
	alive     *scenario.AliveSet
	rng       *rng.RNG
	auto      *metrics.AutoStretch
	ballMarks graph.Marks
	pending   []trace.Event // hook buffer for the op in flight

	// Event log, guarded by mu; cond signals appends, closure, and
	// generation changes.
	mu      sync.Mutex
	cond    *sync.Cond
	log     []trace.Event
	gen     int
	closed  bool
	initial *graphio.Snapshot // replay baseline for the current generation

	// Service counters, read lock-free by /metrics.
	joins, kills, batchKills atomic.Int64
	nodesKilled, healEdges   atomic.Int64
	rejected                 atomic.Int64
	peakDelta                atomic.Int64
	aliveN                   atomic.Int64 // alive-node gauge, maintained by the apply loop
	healLat                  metrics.Histogram
	started                  time.Time
}

// op is one unit of serialized work: run executes in the apply loop,
// which closes done once it returns. Results travel through the closure.
type op struct {
	run  func()
	done chan struct{}
}

// New builds a daemon owning g (taking ownership). The state's node IDs
// are drawn from cfg.Seed, so a (graph, seed) pair fully determines the
// served network.
func New(cfg Config, g *graph.Graph) *Server {
	s, master := newServer(cfg)
	s.install(core.NewState(g, master.Split()))
	go s.applyLoop()
	return s
}

// NewFromSnapshot builds a daemon serving the snapshot's state (cold
// start from a previously saved network), validating it with the same
// invariant checks as the restore endpoint.
func NewFromSnapshot(cfg Config, snap *graphio.Snapshot) (*Server, error) {
	st, err := core.Restore(snap.G, snap.Gp, snap.InitID, snap.CurID, snap.InitDeg)
	if err != nil {
		return nil, err
	}
	s, _ := newServer(cfg)
	s.install(st)
	go s.applyLoop()
	return s, nil
}

func newServer(cfg Config) (*Server, *rng.RNG) {
	if cfg.Healer == nil {
		cfg.Healer = core.DASH{}
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.SampleSources <= 0 {
		cfg.SampleSources = metrics.DefaultSampleSources
	}
	if cfg.MaxRestoreNodes <= 0 {
		cfg.MaxRestoreNodes = DefaultMaxRestoreNodes
	}
	master := rng.New(cfg.Seed)
	s := &Server{
		cfg:       cfg,
		healer:    core.InstanceFor(cfg.Healer),
		ops:       make(chan *op, cfg.QueueDepth),
		applyDone: make(chan struct{}),
		rng:       master.Split(),
		started:   time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, master
}

// install points the server at a fresh state: hooks, alive index, replay
// baseline, stretch sampler, and the G′ prologue of a new log
// generation. Called at construction and on restore (both are moments
// when no op is mutating state).
func (s *Server) install(st *core.State) {
	s.st = st
	s.alive = scenario.NewAliveSet(st.G)
	s.aliveN.Store(int64(st.G.NumAlive()))
	st.SetHooks(&core.Hooks{
		OnRemove: func(x int) {
			s.pending = append(s.pending, trace.Event{Kind: trace.KindRemove, Node: x})
		},
		OnEdge: func(u, v int, newInG, inGp bool) {
			s.pending = append(s.pending, trace.Event{Kind: trace.KindEdge, U: u, V: v, NewInG: newInG, InGp: inGp})
		},
		OnAdopt: func(v int, id uint64) {
			s.pending = append(s.pending, trace.Event{Kind: trace.KindAdopt, Node: v, ID: id})
		},
		OnJoin: func(v int, attach []int) {
			s.pending = append(s.pending, trace.Event{
				Kind: trace.KindJoin, Node: v, Attach: append([]int(nil), attach...),
			})
		},
	})
	g, gp, initID, curID, initDeg := st.SnapshotData()
	s.initial = &graphio.Snapshot{G: g, Gp: gp, InitID: initID, CurID: curID, InitDeg: initDeg}
	s.auto = metrics.NewAutoStretch(st.G, s.cfg.SampleThreshold, s.cfg.SampleSources, s.rng.Split())
	s.peakDelta.Store(0)

	// Prologue: the baseline healing forest as edge events, so a stream
	// from index 0 replays to the exact served topology *including* G′ —
	// for a fresh start the forest is empty and the prologue with it.
	prologue := make([]trace.Event, 0, gp.NumEdges())
	for _, e := range gp.Edges() {
		prologue = append(prologue, trace.Event{Kind: trace.KindEdge, U: e[0], V: e[1], InGp: true})
	}
	s.mu.Lock()
	s.gen++
	s.log = prologue
	s.cond.Broadcast()
	s.mu.Unlock()
}

// applyLoop is the single writer: it runs queued ops one at a time
// until Shutdown closes the queue.
func (s *Server) applyLoop() {
	defer close(s.applyDone)
	for o := range s.ops {
		if s.cfg.beforeApply != nil {
			s.cfg.beforeApply()
		}
		o.run()
		close(o.done)
	}
}

// errQueueFull is returned by enqueue when backpressure trips.
var errQueueFull = fmt.Errorf("server: op queue full")

// errDraining is returned by enqueue once Shutdown has begun.
var errDraining = fmt.Errorf("server: draining")

// enqueue serializes run into the apply loop and waits for completion or
// context cancellation (the op still runs after cancellation; only the
// wait is abandoned).
func (s *Server) enqueue(ctx context.Context, run func()) error {
	o := &op{run: run, done: make(chan struct{})}
	s.gate.RLock()
	if s.draining {
		s.gate.RUnlock()
		return errDraining
	}
	select {
	case s.ops <- o:
		s.gate.RUnlock()
	default:
		s.gate.RUnlock()
		s.rejected.Add(1)
		return errQueueFull
	}
	select {
	case <-o.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// timedOp runs one mutation (a join, kill or batch kill) through the
// apply loop. apply reports a request-level failure as an *opError. On
// success the latency from submission to completion, queue wait
// included, is observed in the heal-latency histogram and returned in
// microseconds.
func (s *Server) timedOp(ctx context.Context, apply func() error) (latencyUS int64, err error) {
	var opErr error
	start := time.Now()
	if err := s.enqueue(ctx, func() { opErr = apply() }); err != nil {
		return 0, err
	}
	if opErr != nil {
		return 0, opErr
	}
	d := time.Since(start)
	s.healLat.Observe(d)
	return d.Microseconds(), nil
}

// publish appends the op's pending events to the log and maintains the
// shared counters. Runs in the apply loop.
func (s *Server) publish(added [][2]int) {
	s.healEdges.Add(int64(len(added)))
	s.peakDelta.Store(int64(s.st.PeakDeltaEdges(int(s.peakDelta.Load()), added)))
	if len(s.pending) == 0 {
		return
	}
	s.mu.Lock()
	s.log = append(s.log, s.pending...)
	s.cond.Broadcast()
	s.mu.Unlock()
	s.pending = s.pending[:0]
}

// opError is a request-level failure with an HTTP status attached.
type opError struct {
	status int
	msg    string
}

func (e *opError) Error() string { return e.msg }

func failf(status int, format string, args ...any) *opError {
	return &opError{status: status, msg: fmt.Sprintf(format, args...)}
}

// JoinResult reports a served join.
type JoinResult struct {
	Node      int   `json:"node"`
	Attach    []int `json:"attach"`
	LatencyUS int64 `json:"latency_us"`
}

// Join adds a node attached to the given targets, or to attachCount
// random distinct alive nodes when attach is empty.
func (s *Server) Join(ctx context.Context, attach []int, attachCount int) (JoinResult, error) {
	var res JoinResult
	lat, err := s.timedOp(ctx, func() error {
		targets := attach
		if len(targets) == 0 {
			if attachCount <= 0 {
				return failf(400, "join needs attach targets or a positive attach_count")
			}
			if attachCount > MaxAttachCount {
				return failf(400, "attach_count %d exceeds the limit of %d", attachCount, MaxAttachCount)
			}
			targets = s.alive.RandomDistinct(attachCount, s.rng)
		} else {
			seen := make(map[int]bool, len(targets))
			for _, u := range targets {
				if !s.alive.Contains(u) {
					return failf(409, "attach target %d is not alive", u)
				}
				if seen[u] {
					return failf(400, "duplicate attach target %d", u)
				}
				seen[u] = true
			}
		}
		v := s.st.Join(targets, s.rng)
		s.alive.Add(v)
		s.aliveN.Add(1)
		s.joins.Add(1)
		// Attach targets gained G edges; δ can only have risen there.
		s.peakDelta.Store(int64(s.st.PeakDelta(int(s.peakDelta.Load()), targets...)))
		s.publish(nil)
		res = JoinResult{Node: v, Attach: targets}
		return nil
	})
	if err != nil {
		return JoinResult{}, err
	}
	res.LatencyUS = lat
	return res, nil
}

// KillResult reports a served kill.
type KillResult struct {
	Node      int   `json:"node"`
	HealEdges int   `json:"heal_edges"`
	LatencyUS int64 `json:"latency_us"`
}

// Kill removes the named node (or a uniform random victim when node < 0)
// and heals the hole.
func (s *Server) Kill(ctx context.Context, node int) (KillResult, error) {
	var res KillResult
	lat, err := s.timedOp(ctx, func() error {
		v := node
		if v < 0 {
			if s.alive.Len() == 0 {
				return failf(409, "no alive nodes to kill")
			}
			v = s.alive.Random(s.rng)
		} else if !s.alive.Contains(v) {
			return failf(409, "node %d is not alive", v)
		}
		s.alive.Remove(v)
		s.aliveN.Add(-1)
		hr := s.st.DeleteAndHeal(v, s.healer)
		s.kills.Add(1)
		s.nodesKilled.Add(1)
		s.publish(hr.Added)
		res = KillResult{Node: v, HealEdges: len(hr.Added)}
		return nil
	})
	if err != nil {
		return KillResult{}, err
	}
	res.LatencyUS = lat
	return res, nil
}

// BatchKillResult reports a served batch kill.
type BatchKillResult struct {
	Killed    []int `json:"killed"`
	HealEdges int   `json:"heal_edges"`
	LatencyUS int64 `json:"latency_us"`
}

// BatchKill removes a set of nodes simultaneously and heals the clusters
// with batch DASH. Explicit nodes win; otherwise a BFS ball of size
// around center (or a random epicenter when center < 0) dies — the
// correlated rack/region failure shape.
func (s *Server) BatchKill(ctx context.Context, nodes []int, size, center int) (BatchKillResult, error) {
	var res BatchKillResult
	lat, err := s.timedOp(ctx, func() error {
		batch := nodes
		if len(batch) == 0 {
			if size <= 0 {
				return failf(400, "batch kill needs nodes or a positive size")
			}
			if s.alive.Len() == 0 {
				return failf(409, "no alive nodes to kill")
			}
			c := center
			if c < 0 {
				c = s.alive.Random(s.rng)
			} else if !s.st.G.Alive(c) {
				return failf(409, "epicenter %d is not alive", c)
			}
			batch = s.st.G.BFSBall(&s.ballMarks, c, size)
		} else {
			seen := make(map[int]bool, len(batch))
			for _, v := range batch {
				if !s.st.G.Alive(v) {
					return failf(409, "node %d is not alive", v)
				}
				if seen[v] {
					return failf(400, "duplicate node %d in batch", v)
				}
				seen[v] = true
			}
		}
		for _, v := range batch {
			s.alive.Remove(v)
		}
		s.aliveN.Add(-int64(len(batch)))
		hr := s.st.DeleteBatchAndHealWith(batch, s.healer)
		s.batchKills.Add(1)
		s.nodesKilled.Add(int64(len(batch)))
		s.publish(hr.Added)
		res = BatchKillResult{Killed: batch, HealEdges: len(hr.Added)}
		return nil
	})
	if err != nil {
		return BatchKillResult{}, err
	}
	res.LatencyUS = lat
	return res, nil
}

// SnapshotResult pairs a full-state snapshot with the log position and
// generation it is consistent with: replaying Events log entries of
// generation Gen over the generation's initial graph reproduces exactly
// this snapshot's topology.
type SnapshotResult struct {
	Snap   *graphio.Snapshot
	Events int
	Gen    int
}

// Snapshot captures the current state (which == "current") or the
// generation's replay baseline (which == "initial").
func (s *Server) Snapshot(ctx context.Context, which string) (SnapshotResult, error) {
	var res SnapshotResult
	var opErr error
	err := s.enqueue(ctx, func() {
		switch which {
		case "", "current":
			g, gp, initID, curID, initDeg := s.st.SnapshotData()
			res.Snap = &graphio.Snapshot{G: g, Gp: gp, InitID: initID, CurID: curID, InitDeg: initDeg}
		case "initial":
			res.Snap = s.initial
		default:
			opErr = failf(400, "unknown snapshot %q (want current or initial)", which)
			return
		}
		s.mu.Lock()
		res.Events = len(s.log)
		res.Gen = s.gen
		s.mu.Unlock()
		if which == "initial" {
			// The baseline is consistent with the log *prologue* only.
			res.Events = res.Snap.Gp.NumEdges()
		}
	})
	if err != nil {
		return res, err
	}
	return res, opErr
}

// Restore replaces the served network with the snapshot's state. The
// current log generation ends (live streams are closed cleanly) and a
// new generation begins with the snapshot as its replay baseline.
// Cumulative service counters survive; peak δ restarts against the new
// baseline.
func (s *Server) Restore(ctx context.Context, snap *graphio.Snapshot) error {
	var opErr error
	err := s.enqueue(ctx, func() {
		st, err := core.Restore(snap.G, snap.Gp, snap.InitID, snap.CurID, snap.InitDeg)
		if err != nil {
			opErr = failf(422, "%v", err)
			return
		}
		s.pending = s.pending[:0]
		s.install(st)
	})
	if err != nil {
		return err
	}
	return opErr
}

// StretchSample is an on-demand δ/stretch measurement.
type StretchSample struct {
	MaxDelta    int     `json:"max_delta"`
	PeakDelta   int     `json:"peak_delta"`
	MaxStretch  float64 `json:"max_stretch"`
	MeanStretch float64 `json:"mean_stretch"`
	StretchLo   float64 `json:"stretch_lo"`
	StretchHi   float64 `json:"stretch_hi"`
	DiameterLB  int     `json:"diameter_lb"`
	Sampled     bool    `json:"sampled"`
}

// MeasureStretch runs a stretch/δ measurement against the generation's
// baseline distances inside the apply loop (it needs a quiescent graph).
func (s *Server) MeasureStretch(ctx context.Context) (StretchSample, error) {
	var res StretchSample
	err := s.enqueue(ctx, func() {
		res.MaxDelta = s.st.MaxDelta()
		res.PeakDelta = int(s.peakDelta.Load())
		if s.st.G.NumAlive() >= 2 {
			m, d := s.auto.Checkpoint(s.st.G, s.rng)
			res.MaxStretch, res.MeanStretch = m.Max, m.Mean
			res.StretchLo, res.StretchHi = m.MeanLo, m.MeanHi
			res.Sampled = m.Sampled
			res.DiameterLB = d.Diameter
		}
	})
	return res, err
}

// Stats is the /metrics payload (histogram quantiles are upper bounds;
// see metrics.Histogram).
type Stats struct {
	UptimeS   float64 `json:"uptime_s"`
	Alive     int     `json:"alive"`
	Edges     int     `json:"edges"`
	NodeSlots int     `json:"node_slots"`
	Gen       int     `json:"gen"`
	Events    int     `json:"events"`

	QueueLen int   `json:"queue_len"`
	QueueCap int   `json:"queue_cap"`
	Rejected int64 `json:"rejected"`

	Joins       int64 `json:"joins"`
	Kills       int64 `json:"kills"`
	BatchKills  int64 `json:"batch_kills"`
	NodesKilled int64 `json:"nodes_killed"`
	HealEdges   int64 `json:"heal_edges"`
	PeakDelta   int64 `json:"peak_delta"`

	HealLatency HealLatency `json:"heal_latency"`

	Stretch *StretchSample `json:"stretch,omitempty"`
}

// HealLatency summarizes the heal-latency histogram.
type HealLatency struct {
	Count  uint64   `json:"count"`
	MeanUS int64    `json:"mean_us"`
	P50US  int64    `json:"p50_us"`
	P95US  int64    `json:"p95_us"`
	P99US  int64    `json:"p99_us"`
	Counts []uint64 `json:"buckets"`
}

// Stats reports service counters without entering the op queue — it must
// stay cheap and available even under full backpressure. Alive/edge
// counts ride through the queue only when quiesce is set.
func (s *Server) Stats(ctx context.Context, quiesce bool) (Stats, error) {
	st := Stats{
		UptimeS:     time.Since(s.started).Seconds(),
		QueueLen:    len(s.ops),
		QueueCap:    cap(s.ops),
		Rejected:    s.rejected.Load(),
		Joins:       s.joins.Load(),
		Kills:       s.kills.Load(),
		BatchKills:  s.batchKills.Load(),
		NodesKilled: s.nodesKilled.Load(),
		HealEdges:   s.healEdges.Load(),
		PeakDelta:   s.peakDelta.Load(),
	}
	h := s.healLat.Snapshot()
	st.HealLatency = HealLatency{
		Count:  h.Count,
		MeanUS: h.Mean().Microseconds(),
		P50US:  h.Quantile(0.50).Microseconds(),
		P95US:  h.Quantile(0.95).Microseconds(),
		P99US:  h.Quantile(0.99).Microseconds(),
		Counts: h.Counts,
	}
	s.mu.Lock()
	st.Gen = s.gen
	st.Events = len(s.log)
	s.mu.Unlock()
	if quiesce {
		err := s.enqueue(ctx, func() {
			st.Alive = s.st.G.NumAlive()
			st.Edges = s.st.G.NumEdges()
			st.NodeSlots = s.st.G.N()
		})
		if err != nil {
			return st, err
		}
	} else {
		st.Alive = int(s.aliveN.Load())
	}
	return st, nil
}

// StreamEvents writes the generation's log as JSONL from index from,
// then follows the live tail until the context ends, the generation
// ends (restore), or the server closes the log (drain). flush, when
// non-nil, runs after every batch so chunked HTTP clients see events
// promptly. It returns the next index (resume cursor) and nil on a
// clean end-of-stream.
func (s *Server) StreamEvents(ctx context.Context, w io.Writer, flush func(), from int) (int, error) {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()

	s.mu.Lock()
	gen := s.gen
	if from < 0 {
		from = 0
	}
	if from > len(s.log) {
		from = len(s.log)
	}
	idx := from
	for {
		for ctx.Err() == nil && s.gen == gen && !s.closed && idx >= len(s.log) {
			s.cond.Wait()
		}
		if err := ctx.Err(); err != nil {
			s.mu.Unlock()
			return idx, err
		}
		if s.gen != gen {
			s.mu.Unlock()
			return idx, nil // generation ended (restore): clean EOF
		}
		batch := s.log[idx:]
		done := s.closed && len(batch) == 0
		s.mu.Unlock()
		if done {
			return idx, nil
		}
		if len(batch) > 0 {
			// The log is append-only within a generation, so the batch
			// slice is immutable outside the lock.
			if err := trace.EncodeJSONL(w, batch); err != nil {
				return idx, err
			}
			idx += len(batch)
			if flush != nil {
				flush()
			}
		}
		s.mu.Lock()
	}
}

// FinalSnapshot captures the served state after Shutdown has completed —
// the snapshot-on-exit path. Once the apply loop has exited no goroutine
// mutates the state, so reading it directly (outside the queue, which no
// longer accepts ops) is safe; before that point it refuses.
func (s *Server) FinalSnapshot() (*graphio.Snapshot, error) {
	select {
	case <-s.applyDone:
	default:
		return nil, fmt.Errorf("server: FinalSnapshot before drain completed")
	}
	g, gp, initID, curID, initDeg := s.st.SnapshotData()
	return &graphio.Snapshot{G: g, Gp: gp, InitID: initID, CurID: curID, InitDeg: initDeg}, nil
}

// Shutdown drains the daemon: new ops are rejected, queued ops finish,
// live streams end after the final event, and the apply loop exits. It
// is idempotent; the context bounds how long the drain may take.
func (s *Server) Shutdown(ctx context.Context) error {
	s.gate.Lock()
	already := s.draining
	s.draining = true
	s.gate.Unlock()
	if already {
		select {
		case <-s.applyDone:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// A sentinel op marks the drain point: once it runs, every op that
	// ever entered the queue has been applied.
	o := &op{run: func() {}, done: make(chan struct{})}
	select {
	case s.ops <- o:
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-o.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	close(s.ops)
	select {
	case <-s.applyDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	return nil
}
