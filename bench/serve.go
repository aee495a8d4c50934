package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/trace"
)

// serveRounds is how many times serve-churn repeats its timeline; the
// metrics are medians over the rounds.
const serveRounds = 4

// closedPerSecond sizes a closed-loop segment: about what one connection
// completes per second on a two-CPU machine, so the segment lasts about
// as long as an open-loop one. The count is fixed, not the duration, so
// the daemon's work, its event log and its memory do not depend on how
// fast the machine happened to be.
const closedPerSecond = 8000

// serveChurn drives a dashd child process over HTTP with the sustained-
// churn mix. Load comes from this process over one request connection;
// one more connection streams /v1/stream, so connections equal nproc on a
// two-CPU machine. Each round is an open loop at the low rate, one at the
// high rate with one GET /metrics?stretch=1 at its midpoint (it goes
// through the op queue and stalls the heals behind it), and a closed loop
// of a fixed number of requests; each segment is planned to last a third
// of the round. Latency is the high rate's; throughput is the closed
// loop's. Every request is a function of the seed.
func serveChurn(env *runEnv) *outcome {
	o := newOutcome(env.tr != nil)
	if env.dashd == "" {
		o.failf("serve-churn needs the dashd binary (-dashd)")
		return o
	}
	// Set-up, three times over: generate the graph and node IDs, write
	// them as a snapshot, boot dashd from it, and wait until it serves.
	// The last daemon is the one measured.
	var d *daemon
	var initial *graph.Graph
	for i := 0; i < 3; i++ {
		if d != nil {
			d.stop()
		}
		t := time.Now()
		snap, g, genDur, err := writeServeSnapshot(env)
		if err == nil {
			d, err = startDaemon(env, snap)
		}
		if err != nil {
			o.failf("set-up: %v", err)
			return o
		}
		o.setups = append(o.setups, time.Since(t))
		o.gens = append(o.gens, genDur)
		initial = g
	}
	defer d.stop()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	c := &server.Client{BaseURL: d.base, HTTP: oneConnClient()}
	stream := startStream(ctx, d.base, env.nproc)

	p := &servePlan{r: rng.New(roundSeed(env.seed, 0) ^ 0x5e7e), alive: scenario.NewAliveSet(initial), c: c, tr: env.tr}
	seg := env.seconds / (3 * serveRounds)
	var low, high, closed stepResult
	var closedRates []float64
	// server.cpu_util is informational; an unreadable /proc leaves it wrong,
	// not the run.
	cpu0, _ := procCPU(d.cmd.Process.Pid)
	start := time.Now()
	for round := 0; round < serveRounds; round++ {
		o.phase.begin(time.Now())
		ok0 := p.ok
		l := p.openLoop(ctx, env.sz.serveRates[0], seg, false)
		h := p.openLoop(ctx, env.sz.serveRates[1], seg, true)
		cl := p.closedLoop(ctx, int(seg.Seconds()*closedPerSecond))
		o.phase.end(time.Now())
		o.lat = append(o.lat, h.lat...)
		o.endRound(p.ok-ok0, digestOf(l.digest, h.digest, cl.digest))
		closedRates = append(closedRates, float64(cl.n)/cl.wall.Seconds())
		low.merge(l)
		high.merge(h)
		closed.merge(cl)
	}
	end := time.Now()
	cpu1, _ := procCPU(d.cmd.Process.Pid)
	logLen := -1
	if st, err := c.Stats(ctx, false, false); err == nil {
		logLen = st.Events
	}
	streamed := stream.count()

	// A request that met a 429 counts as failed even though the client's
	// retry later got it through.
	refused := c.Retried429()
	o.ops -= refused
	o.failed = p.failed + refused
	o.opsPerS = median(closedRates)
	for _, err := range p.errs {
		o.failf("request: %v", err)
	}
	for _, msg := range verifyServed(ctx, c, stream, p.alive.Len()) {
		o.failf("%s", msg)
	}
	rss, err := peakRSSMiB(fmt.Sprint(d.cmd.Process.Pid))
	if err != nil {
		o.failf("dashd peak RSS: %v", err)
	}
	o.rssMiB = rss
	stream.stop()
	if err := stream.err(); err != nil {
		o.failf("event stream: %v", err)
	}
	lowSum := summarize(low.lat)
	o.notes["closed_loop_p99_us"] = summarize(closed.lat).P99us
	o.notes["low_rate_p50_us"] = lowSum.P50us

	if env.tr != nil {
		timed := end.Sub(start)
		applied := summarize(high.apply)
		overhead := summarize(high.http)
		o.layer["server.apply_us_p50"] = applied.P50us
		o.layer["server.apply_us_p99"] = applied.P99us
		o.layer["server.http_us_p50"] = overhead.P50us
		o.layer["server.http_us_p99"] = overhead.P99us
		o.layer["server.stretch_query_ms"] = ms(high.stretch) / serveRounds
		o.layer["server.cpu_util"] = (cpu1 - cpu0).Seconds() / (timed.Seconds() * float64(env.nproc))
		if st, err := c.Stats(ctx, false, false); err == nil {
			o.layer["server.rejected"] = float64(st.Rejected)
		}
		o.layer["serve.low_rate_p99_us"] = lowSum.P99us
		o.layer["stream.events_per_s"] = float64(streamed) / timed.Seconds()
		if logLen >= 0 {
			o.layer["stream.lag_events"] = float64(logLen - streamed)
		}
		late := append(append([]time.Duration(nil), low.late...), high.late...)
		o.layer["client.late_ms_p99"] = summarize(late).P99us / 1000
		o.spanned = low.busy + high.busy + closed.busy
	}
	return o
}

// writeServeSnapshot generates the served network, with node IDs drawn
// the way core.NewState draws them, and writes it as a dashd snapshot.
func writeServeSnapshot(env *runEnv) (path string, g *graph.Graph, genDur time.Duration, err error) {
	t := time.Now()
	r := rng.New(roundSeed(env.seed, 0))
	g = gen.BarabasiAlbert(env.sz.serveN, 3, r.Split())
	genDur = time.Since(t)
	st := core.NewState(g.Clone(), r.Split())
	sg, sgp, initID, curID, initDeg := st.SnapshotData()
	path = filepath.Join(env.workdir, fmt.Sprintf("serve-%d.snap", env.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", nil, 0, err
	}
	w := bufio.NewWriter(f)
	err = graphio.WriteSnapshot(w, &graphio.Snapshot{G: sg, Gp: sgp, InitID: initID, CurID: curID, InitDeg: initDeg})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, g, genDur, err
}

// daemon is a running dashd child.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	exited chan struct{} // closed when stdout reaches EOF
}

// startDaemon boots dashd from a snapshot on a free loopback port and
// waits for its readiness line.
func startDaemon(env *runEnv, snap string) (*daemon, error) {
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(env.dashd, "-snapshot", snap, "-addr", "127.0.0.1:0",
		"-heal", "DASH", "-seed", fmt.Sprint(env.seed))
	d.cmd.Stderr = &d.stderr
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	ready := make(chan string, 1)
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			rest, ok := strings.CutPrefix(sc.Text(), "dashd: serving on ")
			if f := strings.Fields(rest); ok && len(f) > 0 {
				select {
				case ready <- f[0]:
				default: // only the first readiness line matters
				}
			}
		}
	}()
	select {
	case base := <-ready:
		d.base = base
		return d, nil
	case <-d.exited:
	case <-time.After(60 * time.Second):
	}
	d.stop()
	return nil, fmt.Errorf("dashd did not become ready: %s", strings.TrimSpace(d.stderr.String()))
}

// stop drains dashd with SIGTERM, kills it if the drain hangs, and waits
// for it to exit.
func (d *daemon) stop() {
	if d.cmd.ProcessState != nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	_ = d.cmd.Wait()
}

// oneConnClient is an HTTP client that never opens a second connection.
func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// eventStream consumes /v1/stream into memory on its own connection.
type eventStream struct {
	off    bool // no connection left for a subscriber
	mu     sync.Mutex
	events []trace.Event
	e      error
	cancel context.CancelFunc
	done   chan struct{}
}

// startStream subscribes from event 0, unless nproc leaves no connection
// for it (then the served log is not verified).
func startStream(ctx context.Context, base string, nproc int) *eventStream {
	s := &eventStream{done: make(chan struct{}), off: nproc < 2}
	if s.off {
		close(s.done)
		s.cancel = func() {}
		return s
	}
	ctx, s.cancel = context.WithCancel(ctx)
	c := &server.Client{BaseURL: base, HTTP: oneConnClient()}
	go func() {
		defer close(s.done)
		err := c.StreamEvents(ctx, 0, func(e trace.Event) error {
			s.mu.Lock()
			s.events = append(s.events, e)
			s.mu.Unlock()
			return nil
		})
		if err != nil && ctx.Err() == nil {
			s.mu.Lock()
			s.e = err
			s.mu.Unlock()
		}
	}()
	return s
}

func (s *eventStream) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

func (s *eventStream) stop() {
	s.cancel()
	<-s.done
}

func (s *eventStream) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e
}

// verifyServed checks the served network: the streamed log must replay to
// exactly the served G and G′, the network must be connected, and it must
// hold exactly the nodes the client believes are alive.
func verifyServed(ctx context.Context, c *server.Client, s *eventStream, wantAlive int) []string {
	var bad []string
	snap, want, gen, err := c.Snapshot(ctx, "current")
	if err != nil {
		return append(bad, fmt.Sprintf("snapshot: %v", err))
	}
	if !snap.G.Connected() {
		bad = append(bad, "served network is disconnected")
	}
	if got := snap.G.NumAlive(); got != wantAlive {
		bad = append(bad, fmt.Sprintf("served network has %d alive nodes, the client expects %d", got, wantAlive))
	}
	if s.off {
		return bad
	}
	initial, _, initGen, err := c.Snapshot(ctx, "initial")
	if err != nil {
		return append(bad, fmt.Sprintf("initial snapshot: %v", err))
	}
	if gen != initGen {
		return append(bad, "daemon changed generation during the run")
	}
	deadline := time.Now().Add(20 * time.Second)
	for s.count() < want {
		if time.Now().After(deadline) {
			return append(bad, fmt.Sprintf("stream delivered %d of %d events", s.count(), want))
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.mu.Lock()
	prefix := s.events[:want]
	s.mu.Unlock()
	g, gp, err := trace.Replay(initial.G, prefix)
	if err != nil {
		return append(bad, fmt.Sprintf("stream replay: %v", err))
	}
	if !g.Equal(snap.G) || !gp.Equal(snap.Gp) {
		bad = append(bad, fmt.Sprintf("streamed log (%d events) does not replay to the served G and G′", want))
	}
	return bad
}

// servePlan generates the request stream from the seed: every third
// request is a join with three distinct alive attach targets, the rest
// kill a uniformly random alive node. The client tracks the alive set
// itself (one connection, so it always knows the served state), so the
// daemon only ever receives the generated inputs.
type servePlan struct {
	r     *rng.RNG
	alive *scenario.AliveSet
	c     *server.Client
	tr    *tracer
	i     int

	ok, failed int64
	errs       []error
}

// stepResult is one loop's measurements.
type stepResult struct {
	lat, apply, http, late []time.Duration
	stretch                time.Duration // the stretch reads' round trips
	busy                   time.Duration // time inside requests
	n                      int           // closed loop: completed requests
	wall                   time.Duration // closed loop: how long they took
	digest                 string
}

// merge adds r's samples and times to s; rounds keep their own digests
// and closed-loop rates.
func (s *stepResult) merge(r stepResult) {
	s.lat = append(s.lat, r.lat...)
	s.apply = append(s.apply, r.apply...)
	s.http = append(s.http, r.http...)
	s.late = append(s.late, r.late...)
	s.stretch += r.stretch
	s.busy += r.busy
}

// do sends the next request and returns its server-reported latency.
func (p *servePlan) do(ctx context.Context) (apply time.Duration, out string, err error) {
	i := p.i
	p.i++
	if (i+1)%3 == 0 {
		attach := make([]int, 0, 3)
		for len(attach) < min(3, p.alive.Len()) {
			u := p.alive.Random(p.r)
			dup := false
			for _, w := range attach {
				dup = dup || w == u
			}
			if !dup {
				attach = append(attach, u)
			}
		}
		res, err := p.c.Join(ctx, attach, 0)
		if err != nil {
			return 0, "", err
		}
		p.alive.Add(res.Node)
		return time.Duration(res.LatencyUS) * time.Microsecond, fmt.Sprint("j", res.Node), nil
	}
	v := p.alive.Random(p.r)
	p.alive.Remove(v)
	res, err := p.c.Kill(ctx, v)
	if err != nil {
		return 0, "", err
	}
	return time.Duration(res.LatencyUS) * time.Microsecond, fmt.Sprint("k", v, ":", res.HealEdges), nil
}

// request runs one request and does its accounting.
func (p *servePlan) request(ctx context.Context, r *stepResult) (sent, done time.Time, ok bool, out string) {
	p.tr.nextOp()
	sent = time.Now()
	apply, out, err := p.do(ctx)
	done = time.Now()
	r.busy += done.Sub(sent)
	if err != nil {
		p.failed++
		if len(p.errs) < 5 && !errors.Is(err, context.DeadlineExceeded) {
			p.errs = append(p.errs, err)
		}
		return sent, done, false, ""
	}
	p.ok++
	r.apply = append(r.apply, apply)
	r.http = append(r.http, done.Sub(sent)-apply)
	p.tr.add(spApply, sent, apply)
	p.tr.add(spHTTP, sent, done.Sub(sent)-apply)
	return sent, done, true, out
}

// openLoop sends rate×dur requests on a fixed schedule over the one
// connection, with one stretch read due at the midpoint when stretch is
// set, and times each request from when it was due (see
// openLoopLatency). late records how far behind its schedule the
// generator actually sent each request.
func (p *servePlan) openLoop(ctx context.Context, rate float64, dur time.Duration, stretch bool) stepResult {
	var r stepResult
	count := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	stretchAt := -1
	if stretch {
		stretchAt = count / 2
	}
	start := time.Now()
	vdone := start // the previous request's completion on the slop-free timeline
	var outs []string
	for i := 0; i < count && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if i == stretchAt {
			t := time.Now()
			if _, err := p.c.Stats(ctx, true, false); err != nil {
				p.errs = append(p.errs, fmt.Errorf("stretch read: %w", err))
			}
			r.stretch = time.Since(t)
			r.busy += r.stretch
			p.tr.add(spStretch, t, r.stretch)
			_, vdone = openLoopLatency(due, vdone, r.stretch)
		}
		sent, done, ok, out := p.request(ctx, &r)
		var lat time.Duration
		lat, vdone = openLoopLatency(due, vdone, done.Sub(sent))
		if ok {
			r.lat = append(r.lat, lat)
			r.late = append(r.late, max(0, sent.Sub(due)))
			outs = append(outs, out)
		}
	}
	r.digest = digestOf(strings.Join(outs, ","))
	return r
}

// closedLoop sends count requests back to back.
func (p *servePlan) closedLoop(ctx context.Context, count int) stepResult {
	var r stepResult
	start := time.Now()
	var outs []string
	for i := 0; i < count && ctx.Err() == nil; i++ {
		sent, done, ok, out := p.request(ctx, &r)
		if ok {
			r.lat = append(r.lat, done.Sub(sent))
			outs = append(outs, out)
		}
	}
	r.n, r.wall = len(r.lat), time.Since(start)
	r.digest = digestOf(strings.Join(outs, ","))
	return r
}
