package server

// Unit tests for the daemon's HTTP surface: request validation, the
// backpressure path (deterministically provoked by blocking the apply
// loop through the beforeApply test hook), and drain semantics. The
// heavier concurrency and replay properties live in e2e_test.go.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/trace"
)

// newTestServer builds a daemon over a small BA graph plus an HTTP
// front; cleanup shuts both down.
func newTestServer(t *testing.T, cfg Config, n int) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg, gen.BarabasiAlbert(n, 3, rng.New(11)))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, string(b)
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 1}, 50)
	cases := []struct {
		name, path, body string
		wantStatus       int
	}{
		{"bad json", "/v1/join", "{", 400},
		{"unknown field", "/v1/join", `{"atach":[1]}`, 400},
		{"join duplicate attach", "/v1/join", `{"attach":[3,3]}`, 400},
		{"join negative count", "/v1/join", `{"attach_count":-2}`, 400},
		{"join count over limit", "/v1/join", fmt.Sprintf(`{"attach_count":%d}`, MaxAttachCount+1), 400},
		{"kill negative node", "/v1/kill", `{"node":-4}`, 400},
		{"kill out of range", "/v1/kill", `{"node":99999}`, 409},
		{"leave without node", "/v1/leave", `{}`, 400},
		{"batch without size", "/v1/batchkill", `{}`, 400},
		{"batch duplicate node", "/v1/batchkill", `{"nodes":[2,2]}`, 400},
		{"batch dead epicenter", "/v1/batchkill", `{"size":3,"center":99999}`, 409},
		{"restore garbage", "/v1/restore", "not a snapshot", 422},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s: status %d (body %s), want %d", c.name, resp.StatusCode, body, c.wantStatus)
		}
		var eb errorBody
		if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %q is not {\"error\": ...}", c.name, body)
		}
	}

	// GET-side validation.
	for _, c := range []struct {
		name, path string
		wantStatus int
	}{
		{"stream bad from", "/v1/stream?from=-1", 400},
		{"snapshot unknown which", "/v1/snapshot?which=bogus", 400},
	} {
		resp, err := http.Get(ts.URL + c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.wantStatus)
		}
	}

	// A dead node is a conflict, not a malformed request: kill 7 twice.
	if resp, _ := postJSON(t, ts.URL+"/v1/kill", `{"node":7}`); resp.StatusCode != 200 {
		t.Fatalf("first kill of node 7: status %d", resp.StatusCode)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/kill", `{"node":7}`); resp.StatusCode != 409 {
		t.Errorf("second kill of node 7: status %d (body %s), want 409", resp.StatusCode, body)
	}
}

// SampleSources <= 0 means metrics.DefaultSampleSources, not "every
// alive node": a sampled stretch read must pick exactly that many
// diameter sources, so it draws from the server's RNG like an explicit
// default does and the next random victim is the same.
func TestSampleSourcesZeroMeansDefault(t *testing.T) {
	ctx := context.Background()
	victim := func(sources int) int {
		s, _ := newTestServer(t, Config{Seed: 8, SampleThreshold: 16, SampleSources: sources}, 200)
		if s.cfg.SampleSources != metrics.DefaultSampleSources {
			t.Errorf("SampleSources %d normalised to %d, want %d", sources, s.cfg.SampleSources, metrics.DefaultSampleSources)
		}
		m, err := s.MeasureStretch(ctx)
		if err != nil || !m.Sampled {
			t.Fatalf("stretch read: %+v, %v; want a sampled measurement", m, err)
		}
		k, err := s.Kill(ctx, -1)
		if err != nil {
			t.Fatalf("kill: %v", err)
		}
		return k.Node
	}
	if got, want := victim(0), victim(metrics.DefaultSampleSources); got != want {
		t.Errorf("victim after a stretch read with SampleSources 0 is %d, with the default %d", got, want)
	}
}

// MeasureStretch runs the stretch and diameter reads as one fused
// sweep (metrics.AutoStretch.Checkpoint). On a fixed seed it must
// return, field for field and byte for byte as JSON, what the two
// separate reads return on a copy of the graph and of the server's RNG,
// and leave the RNG where they leave it, so the next random victim is
// the same. Both the sampled and the exact mode are covered, each after
// churn that kills nodes and joins new ones.
func TestMeasureStretchMatchesSeparateReads(t *testing.T) {
	ctx := context.Background()
	for _, threshold := range []int{64, 0} { // sampled at n = 400; exact below the default threshold
		t.Run(fmt.Sprintf("threshold=%d", threshold), func(t *testing.T) {
			s, _ := newTestServer(t, Config{Seed: 21, SampleThreshold: threshold}, 400)
			for i := 0; i < 60; i++ {
				var err error
				if i%3 == 2 {
					_, err = s.Join(ctx, nil, 3)
				} else {
					_, err = s.Kill(ctx, -1)
				}
				if err != nil {
					t.Fatalf("churn op %d: %v", i, err)
				}
			}
			var want StretchSample
			var wantVictim int
			if err := s.enqueue(ctx, func() {
				g, r := s.st.G.Clone(), *s.rng
				m := s.auto.Measure(g)
				k := s.cfg.SampleSources
				if !s.auto.Sampled() {
					k = 0
				}
				want = StretchSample{
					MaxDelta: s.st.MaxDelta(), PeakDelta: int(s.peakDelta.Load()),
					MaxStretch: m.Max, MeanStretch: m.Mean, StretchLo: m.MeanLo, StretchHi: m.MeanHi,
					DiameterLB: metrics.SampledDiameter(g, k, &r).Diameter,
					Sampled:    m.Sampled,
				}
				wantVictim = s.alive.Random(&r)
			}); err != nil {
				t.Fatal(err)
			}
			got, err := s.MeasureStretch(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got.Sampled != (threshold > 0) {
				t.Fatalf("sampled = %v with threshold %d", got.Sampled, threshold)
			}
			gotJSON, _ := json.Marshal(got)
			wantJSON, _ := json.Marshal(want)
			if got != want || string(gotJSON) != string(wantJSON) {
				t.Fatalf("MeasureStretch = %s, separate reads %s", gotJSON, wantJSON)
			}
			k, err := s.Kill(ctx, -1)
			if err != nil {
				t.Fatal(err)
			}
			if k.Node != wantVictim {
				t.Fatalf("victim after the read is %d, after the separate reads %d", k.Node, wantVictim)
			}
		})
	}
}

func TestJoinAndKillRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, Config{Seed: 2}, 40)
	resp, body := postJSON(t, ts.URL+"/v1/join", `{"attach":[1,2,3]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("join: status %d body %s", resp.StatusCode, body)
	}
	var jr JoinResult
	if err := json.Unmarshal([]byte(body), &jr); err != nil {
		t.Fatalf("join body %q: %v", body, err)
	}
	if jr.Node != 40 || len(jr.Attach) != 3 {
		t.Fatalf("join result %+v, want node 40 with 3 attach targets", jr)
	}
	resp, body = postJSON(t, ts.URL+"/v1/leave", fmt.Sprintf(`{"node":%d}`, jr.Node))
	if resp.StatusCode != 200 {
		t.Fatalf("leave: status %d body %s", resp.StatusCode, body)
	}
	st, err := (&Client{BaseURL: ts.URL}).Stats(context.Background(), false, true)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Alive != 40 {
		t.Errorf("alive = %d after join+leave, want 40", st.Alive)
	}
	if st.Joins != 1 || st.Kills != 1 {
		t.Errorf("counters joins=%d kills=%d, want 1/1", st.Joins, st.Kills)
	}
	_ = s
}

// Backpressure must be deterministic to test: block the apply loop,
// fill the queue exactly, and demand a 429 with Retry-After on the
// next request — then unblock and watch every queued op complete.
func TestBackpressure429(t *testing.T) {
	const depth = 4
	gate := make(chan struct{})
	var release sync.Once
	unblock := func() { release.Do(func() { close(gate) }) }
	defer unblock() // even on a fatal, let pending requests and cleanup finish
	cfg := Config{Seed: 3, QueueDepth: depth}
	cfg.beforeApply = func() { <-gate }
	s, ts := newTestServer(t, cfg, 60)

	// One op occupies the loop (blocked in beforeApply), depth more fill
	// the queue.
	results := make(chan int, depth+1)
	for i := 0; i < depth+1; i++ {
		go func() {
			resp, _ := http.Post(ts.URL+"/v1/kill", "application/json", strings.NewReader(`{}`))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.ops) < depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: len %d, want %d", len(s.ops), depth)
		}
		time.Sleep(time.Millisecond)
	}

	// Queue is provably full: this request must be pushed back, not hang.
	resp, body := postJSON(t, ts.URL+"/v1/kill", `{}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload kill: status %d body %s, want 429", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	if s.rejected.Load() == 0 {
		t.Error("rejected counter did not move")
	}

	// Release the loop: all queued requests complete successfully.
	unblock()
	for i := 0; i < depth+1; i++ {
		if code := <-results; code != 200 {
			t.Errorf("queued request %d finished with status %d, want 200", i, code)
		}
	}
}

// The retrying client turns backpressure into waiting: under the same
// blocked loop, a Client.Kill issued before the unblock still succeeds.
func TestClientRetriesThroughBackpressure(t *testing.T) {
	gate := make(chan struct{})
	var release sync.Once
	unblock := func() { release.Do(func() { close(gate) }) }
	defer unblock()
	cfg := Config{Seed: 4, QueueDepth: 1}
	cfg.beforeApply = func() { <-gate }
	s, ts := newTestServer(t, cfg, 30)

	// Two requests: the first occupies the blocked apply loop, the
	// second fills the one-slot queue.
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/kill", "application/json", strings.NewReader(`{}`))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.ops) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	c := &Client{BaseURL: ts.URL, RetryWaitCap: 5 * time.Millisecond}
	done := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() {
		_, err := c.Kill(ctx, -1)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it eat at least one 429
	unblock()
	if err := <-done; err != nil {
		t.Fatalf("retrying kill failed: %v", err)
	}
	if c.Retried429() == 0 {
		t.Error("client reports no 429 retries; backpressure never engaged")
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	s := New(Config{Seed: 5}, gen.BarabasiAlbert(30, 3, rng.New(5)))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/kill", `{}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("kill after drain: status %d body %s, want 503", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain: status %d, want 503", resp.StatusCode)
	}
	// Idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// A subscriber sees every event and then a clean EOF when the daemon
// drains — the contract that lets an archiver know it missed nothing.
func TestStreamEndsCleanlyOnDrain(t *testing.T) {
	s := New(Config{Seed: 6}, gen.BarabasiAlbert(40, 3, rng.New(6)))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	var got atomic.Int64
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- c.StreamEvents(ctx, 0, func(e trace.Event) error {
			got.Add(1)
			return nil
		})
	}()

	const kills = 5
	for i := 0; i < kills; i++ {
		if _, err := c.Kill(ctx, -1); err != nil {
			t.Fatalf("kill %d: %v", i, err)
		}
	}
	st, err := c.Stats(ctx, false, true)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-streamDone; err != nil {
		t.Fatalf("stream ended with %v, want clean EOF", err)
	}
	if got.Load() != int64(st.Events) {
		t.Errorf("stream delivered %d events, daemon logged %d", got.Load(), st.Events)
	}
	if got.Load() < kills {
		t.Errorf("stream delivered %d events for %d kills", got.Load(), kills)
	}
}
