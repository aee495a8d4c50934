package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/rng"
)

func TestPickHealer(t *testing.T) {
	kind, h, err := pickHealer("DASH")
	if err != nil || kind != dist.HealDASH || h.Name() != "DASH" {
		t.Errorf("DASH mapping wrong: %v %v %v", kind, h, err)
	}
	kind, h, err = pickHealer("SDASH")
	if err != nil || kind != dist.HealSDASH || h.Name() != "SDASH" {
		t.Errorf("SDASH mapping wrong: %v %v %v", kind, h, err)
	}
	if _, _, err := pickHealer("GraphHeal"); err == nil {
		t.Error("non-distributed healer should be rejected")
	}
}

// newRoundsNet builds the sequential reference and a distributed network
// of the given kind over the same start graph, as realMain does.
func newRoundsNet(t *testing.T, n int, seed uint64, kind dist.HealerKind) (*core.State, *dist.Network, *rng.RNG) {
	t.Helper()
	master := rng.New(seed)
	g := gen.BarabasiAlbert(n, 3, master.Split())
	seq := core.NewState(g.Clone(), master.Split())
	ids := dist.InitIDs(seq)
	nw := dist.NewKind(g.Clone(), ids, kind)
	t.Cleanup(nw.Close)
	return seq, nw, master.Split()
}

// TestRunBatchMode drives the round loop in disaster mode end to end
// on a small network: the distributed batch epochs must match the
// sequential batch-DASH rule every round, all the way to an empty graph.
func TestRunBatchMode(t *testing.T) {
	seq, nw, attR := newRoundsNet(t, 160, 9, dist.HealDASH)
	var buf bytes.Buffer
	if diverged, err := runRounds(&buf, seq, nw, core.DASH{}, attack.MaxDegree{}, attR, 12, 4, true); diverged || err != nil {
		t.Fatalf("batch mode diverged (%v):\n%s", err, buf.String())
	}
	if seq.G.NumAlive() != 0 {
		t.Fatalf("MaxNode disaster loop should empty the graph, %d alive", seq.G.NumAlive())
	}
	if out := buf.String(); !strings.Contains(out, "epoch    4: killed  12") || strings.Contains(out, "label msgs") {
		t.Fatalf("expected disaster status lines, got:\n%s", out)
	}
}

// TestRunSingleKillMode drives the same loop with single kills, for
// both distributed rules: every round must match the sequential healer
// exactly, all the way to an empty graph, and the status lines must
// carry the message counters.
func TestRunSingleKillMode(t *testing.T) {
	for _, kind := range []dist.HealerKind{dist.HealDASH, dist.HealSDASH} {
		seq, nw, attR := newRoundsNet(t, 96, 5, kind)
		var buf bytes.Buffer
		if diverged, err := runRounds(&buf, seq, nw, kind.Healer(), attack.NeighborOfMax{}, attR, 0, 16, true); diverged || err != nil {
			t.Fatalf("%v: single-kill mode diverged (%v):\n%s", kind, err, buf.String())
		}
		if seq.G.NumAlive() != 0 {
			t.Fatalf("%v: the attack should empty the graph, %d alive", kind, seq.G.NumAlive())
		}
		if out := buf.String(); !strings.Contains(out, "round   16: alive=  80") || !strings.Contains(out, "label msgs=") {
			t.Fatalf("%v: expected single-kill status lines, got:\n%s", kind, out)
		}
	}
}

// TestRunRoundsReportsDivergence pins that the loop's per-round check
// is real: a sequential reference healing by OracleDASH (DASH's heal,
// no label floods) must be flagged on the first round.
func TestRunRoundsReportsDivergence(t *testing.T) {
	seq, nw, attR := newRoundsNet(t, 64, 3, dist.HealDASH)
	var buf bytes.Buffer
	diverged, err := runRounds(&buf, seq, nw, core.OracleDASH{}, attack.MaxDegree{}, attR, 0, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if !diverged {
		t.Fatal("a label-free sequential reference should diverge")
	}
	if out := buf.String(); !strings.HasPrefix(out, "round 1: DIVERGENCE") || !strings.Contains(out, "label") {
		t.Fatalf("expected a label divergence on round 1, got:\n%s", out)
	}
}

// TestBadSizesAreUsageErrors pins that a size the generator or the
// chaos harness cannot run is a usage mistake, exit 2, not a generator
// panic or a runtime failure.
func TestBadSizesAreUsageErrors(t *testing.T) {
	defer func(args []string, fs *flag.FlagSet) { os.Args, flag.CommandLine = args, fs }(os.Args, flag.CommandLine)
	for _, args := range [][]string{
		{"-n", "3"},
		{"-n", "0", "-batch", "4"},
		{"-chaos", "-n", "3"},
		{"-chaos", "-n", "7"},
		{"-chaos", "-chaos-ops", "0"},
	} {
		flag.CommandLine = flag.NewFlagSet("dashdist", flag.ContinueOnError)
		os.Args = append([]string{"dashdist"}, args...)
		if err := realMain(); cli.Code(err) != cli.ExitUsage {
			t.Errorf("%v: exit %d (%v), want %d", args, cli.Code(err), err, cli.ExitUsage)
		}
	}
}
