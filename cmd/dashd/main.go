// Command dashd is the resident self-healing overlay daemon: it owns a
// live graph healed by DASH/SDASH and serves concurrent
// join/leave/kill/batch-kill sessions over HTTP, streams every mutation
// as trace JSONL on /v1/stream (the internal/trace codec is the wire
// format, so an archived stream replays to the exact served topology),
// reports δ/stretch samples and heal-latency histograms on /metrics, and
// supports full-state snapshot/restore via the internal/graphio text
// format.
//
// Under overload the daemon pushes back instead of collapsing: the op
// queue is bounded and a full queue answers 429 with a Retry-After
// estimated from the measured heal rate.
//
// SIGINT/SIGTERM drains gracefully: new work is rejected with 503,
// queued ops finish, live streams end after the final event, and —
// with -final-snapshot — the terminal state is written out so the next
// invocation can resume from it with -snapshot.
//
// Examples:
//
//	dashd -n 100000
//	dashd -n 1000000 -heal SDASH -queue 4096
//	dashd -snapshot saved.snap -final-snapshot saved.snap
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/server"
)

func main() {
	os.Exit(cli.Run("dashd", realMain))
}

func realMain() error {
	var (
		addr      = flag.String("addr", "127.0.0.1:7117", "listen address")
		n         = flag.Int("n", 10000, "initial network size when starting fresh (Barabási–Albert, m=3)")
		healName  = flag.String("heal", "DASH", "healing strategy: "+strings.Join(repro.HealerNames(), " | "))
		seed      = flag.Uint64("seed", 1, "master random seed (topology, victim picks, join IDs)")
		queue     = flag.Int("queue", server.DefaultQueueDepth, "op queue depth (backpressure trips beyond it)")
		threshold = flag.Int("sample-threshold", metrics.DefaultSampleThreshold, "alive-node count at which /metrics stretch switches to sampling")
		sources   = flag.Int("sample-sources", metrics.DefaultSampleSources, "BFS sources per sampled stretch measurement")
		snapPath  = flag.String("snapshot", "", "start from this snapshot file instead of generating a fresh graph (ignores -n)")
		finalSnap = flag.String("final-snapshot", "", "write the final state to this file after draining ('-' = stdout)")
		maxNodes  = flag.Int("max-restore-nodes", server.DefaultMaxRestoreNodes, "largest node count a restore snapshot may declare")
		drainWait = flag.Duration("drain-timeout", 30*time.Second, "how long a signal-triggered drain may take")
	)
	flag.Parse()

	healer, err := repro.HealerByName(*healName)
	if err != nil {
		return cli.WrapUsage(err)
	}
	if err := gen.CheckBarabasiAlbert(*n, 3); err != nil && *snapPath == "" {
		return cli.Usagef("-n %d: %v", *n, err)
	}
	cfg := server.Config{
		Healer:          healer,
		QueueDepth:      *queue,
		Seed:            *seed,
		MaxRestoreNodes: *maxNodes,
		SampleThreshold: *threshold,
		SampleSources:   *sources,
	}

	var s *server.Server
	if *snapPath != "" {
		snap, err := readSnapshotFile(*snapPath, *maxNodes)
		if err != nil {
			return err
		}
		s, err = server.NewFromSnapshot(cfg, snap)
		if err != nil {
			return fmt.Errorf("snapshot %s does not restore: %w", *snapPath, err)
		}
		fmt.Printf("dashd: restored %d nodes (%d alive, %d edges) from %s\n",
			snap.G.N(), snap.G.NumAlive(), snap.G.NumEdges(), *snapPath)
	} else {
		s = server.New(cfg, gen.BarabasiAlbert(*n, 3, rng.New(*seed)))
		fmt.Printf("dashd: built Barabási–Albert graph, n=%d m=3, seed=%d\n", *n, *seed)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		// The daemon's state is live but unreachable; drain it before
		// reporting the listen failure so the apply loop exits.
		_ = s.Shutdown(context.Background())
		return err
	}
	httpSrv := &http.Server{Handler: s.Handler()}

	// The handler must be installed before readiness is announced: a
	// supervisor that TERMs the moment it sees the line must trigger a
	// drain, not the default kill.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The readiness line is machine-parsed by the smoke test; keep the
	// "dashd: serving on " prefix stable.
	fmt.Printf("dashd: serving on http://%s (%s healing, queue %d)\n", ln.Addr(), *healName, *queue)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		_ = s.Shutdown(context.Background())
		return err
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process instead of re-queuing
	fmt.Println("dashd: signal received, draining")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Order matters: draining the server first ends live /v1/stream
	// responses cleanly (closed log → EOF), so the HTTP shutdown that
	// follows is not stuck waiting on infinite streams.
	if err := s.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}

	if *finalSnap != "" {
		snap, err := s.FinalSnapshot()
		if err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		err = cli.WriteFile(*finalSnap, os.Stdout, func(w io.Writer) error {
			return graphio.WriteSnapshot(w, snap)
		})
		if err != nil {
			return err
		}
		if *finalSnap != "-" {
			fmt.Printf("dashd: wrote final snapshot (%d nodes, %d alive) to %s\n",
				snap.G.N(), snap.G.NumAlive(), *finalSnap)
		}
	}
	fmt.Println("dashd: drained cleanly")
	return nil
}

// readSnapshotFile loads a graphio snapshot, surfacing line-numbered
// parse errors with the file name attached.
func readSnapshotFile(path string, maxNodes int) (*graphio.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := graphio.ReadSnapshot(f, maxNodes)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}
