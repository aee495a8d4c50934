package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/cli"
	"repro/internal/rng"
)

func TestGraphGenFamilies(t *testing.T) {
	r := rng.New(1)
	for _, family := range []string{"ba", "tree", "ring", "line", "grid", "er"} {
		mk, nodes, err := graphGen(family, 30, 3)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		g := mk(r)
		if g.NumAlive() < 30 || g.NumAlive() != nodes {
			t.Errorf("%s: %d nodes, want >= 30 and the reported %d", family, g.NumAlive(), nodes)
		}
		if !g.Connected() {
			t.Errorf("%s: generated graph disconnected", family)
		}
	}
	if _, _, err := graphGen("nope", 10, 2); err == nil {
		t.Error("unknown family should error")
	}
}

func TestGridRoundsUp(t *testing.T) {
	mk, nodes, err := graphGen("grid", 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g := mk(rng.New(2)); g.NumAlive() != 16 || nodes != 16 {
		t.Errorf("grid for n=10 should be 4x4=16 nodes, got %d (reported %d)", g.NumAlive(), nodes)
	}
	// -fraction counts the real nodes: half the grid is 8, not 5.
	if rounds, err := deletionRounds(0.5, nodes); err != nil || rounds != 8 {
		t.Errorf("deletionRounds(0.5, 16) = %d, %v; want 8", rounds, err)
	}
}

// TestFractionOutOfRange: -fraction outside (0, 1] used to delete every
// node silently; it is a usage error (exit 2) before anything runs.
func TestFractionOutOfRange(t *testing.T) {
	defer func(args []string, fs *flag.FlagSet) { os.Args, flag.CommandLine = args, fs }(os.Args, flag.CommandLine)
	for _, f := range []string{"0", "-0.5", "1.5", "NaN"} {
		flag.CommandLine = flag.NewFlagSet("selfheal", flag.ContinueOnError)
		os.Args = []string{"selfheal", "-n", "16", "-trials", "1", "-fraction", f}
		if code := cli.Code(realMain()); code != cli.ExitUsage {
			t.Errorf("-fraction %s: exit %d, want %d", f, code, cli.ExitUsage)
		}
	}
	for _, f := range []float64{0.25, 1} {
		if _, err := deletionRounds(f, 16); err != nil {
			t.Errorf("-fraction %v rejected: %v", f, err)
		}
	}
}

// TestBadSizesAreUsageErrors: a Barabási–Albert size the generator
// cannot build is a usage error (exit 2), not a generator panic.
func TestBadSizesAreUsageErrors(t *testing.T) {
	defer func(args []string, fs *flag.FlagSet) { os.Args, flag.CommandLine = args, fs }(os.Args, flag.CommandLine)
	for _, args := range [][]string{
		{"-n", "2"},
		{"-n", "3"},
		{"-m", "0"},
		{"-n", "8", "-m", "8"},
	} {
		flag.CommandLine = flag.NewFlagSet("selfheal", flag.ContinueOnError)
		os.Args = append([]string{"selfheal", "-trials", "1"}, args...)
		if err := realMain(); cli.Code(err) != cli.ExitUsage {
			t.Errorf("%v: exit %d (%v), want %d", args, cli.Code(err), err, cli.ExitUsage)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.dot")
	mk, _, err := graphGen("tree", 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeDOT(path, mk, repro.DASH, repro.MaxNode, 3, 0.5); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.HasPrefix(out, "graph healed {") {
		t.Errorf("DOT header wrong:\n%s", out)
	}
	if !strings.Contains(out, " -- ") {
		t.Error("DOT has no edges")
	}
}

func TestWriteDOTFullFractionSnapshotsAtHalf(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.dot")
	mk, _, _ := graphGen("ring", 16, 0)
	if err := writeDOT(path, mk, repro.DASH, repro.MaxNode, 4, 1.0); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if !strings.Contains(string(data), "n") || !strings.Contains(string(data), " -- ") {
		t.Error("full-fraction DOT should still draw the half-deleted graph")
	}
}
