package main

import (
	"flag"
	"os"
	"testing"

	"repro/internal/cli"
)

// TestBadSizesAreUsageErrors: an -n the Barabási–Albert generator
// cannot build is a usage error (exit 2) before the daemon starts, not
// a generator panic.
func TestBadSizesAreUsageErrors(t *testing.T) {
	defer func(args []string, fs *flag.FlagSet) { os.Args, flag.CommandLine = args, fs }(os.Args, flag.CommandLine)
	for _, args := range [][]string{
		{"-n", "2"},
		{"-n", "3"},
		{"-n", "0"},
		{"-n", "-5"},
	} {
		flag.CommandLine = flag.NewFlagSet("dashd", flag.ContinueOnError)
		os.Args = append([]string{"dashd", "-addr", "127.0.0.1:0"}, args...)
		if err := realMain(); cli.Code(err) != cli.ExitUsage {
			t.Errorf("%v: exit %d (%v), want %d", args, cli.Code(err), err, cli.ExitUsage)
		}
	}
}
