package dist

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

// TestDivergesNamesTheField pins the oracle itself: it accepts the
// sequential twin, and rejects states that differ in one field with an
// error naming that field — G for a state one kill ahead, the labels
// for a state whose initial IDs come from another seed on the same
// graph, and the rounds for a state with one extra (empty) batch round.
func TestDivergesNamesTheField(t *testing.T) {
	const n, seed = 48, 5
	g := gen.BarabasiAlbert(n, 3, rng.New(seed))
	seq := core.NewState(g.Clone(), rng.New(seed+1))
	ids := InitIDs(seq)
	nw := New(g.Clone(), ids)
	defer nw.Close()
	if err := nw.Diverges(seq); err != nil {
		t.Fatalf("fresh twin: %v", err)
	}
	otherIDs := core.NewState(g.Clone(), rng.New(seed+2))
	if err := nw.Diverges(otherIDs); err == nil || !strings.Contains(err.Error(), "label") {
		t.Errorf("other initial IDs: Diverges = %v, want an error naming the label", err)
	}
	seq.DeleteAndHeal(0, core.DASH{})
	if err := nw.KillAsync(0).Wait(testTimeout); err != nil {
		t.Fatal(err)
	}
	if err := nw.Diverges(seq); err != nil {
		t.Fatalf("twin after one kill: %v", err)
	}

	ahead := core.NewState(g.Clone(), rng.New(seed+1))
	ahead.DeleteAndHeal(0, core.DASH{})
	ahead.DeleteAndHeal(1, core.DASH{})
	extraRound := core.NewState(g.Clone(), rng.New(seed+1))
	extraRound.DeleteAndHeal(0, core.DASH{})
	extraRound.DeleteBatchAndHeal(nil)

	for _, tc := range []struct {
		name string
		seq  *core.State
		want string
	}{
		{"one kill ahead", ahead, "G differs"},
		{"extra round", extraRound, "rounds"},
	} {
		err := nw.Diverges(tc.seq)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Diverges = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestReplayEffectiveChecksJoins pins that the effective-op replay
// rejects a join whose initial ID the replay cannot reproduce.
func TestReplayEffectiveChecksJoins(t *testing.T) {
	g := gen.BarabasiAlbert(16, 3, rng.New(1))
	seq := core.NewState(g, rng.New(2))
	ops := []Op{{Kind: OpJoin, NewID: 16, Attach: []int{0, 1}, InitID: 7}}
	err := ReplayEffective(seq, ops, core.DASH{}, rng.New(3))
	if err == nil || !strings.Contains(err.Error(), "join") {
		t.Fatalf("ReplayEffective = %v, want a join mismatch", err)
	}
}

// TestOnlyTheOracleImportsCore keeps the sequential engine out of the
// protocol: no non-test file of the package but oracle.go may import
// internal/core, so no node, supervisor or pipeline code can call it.
func TestOnlyTheOracleImportsCore(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") || f == "oracle.go" {
			continue
		}
		af, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range af.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "repro/internal/core" {
				t.Errorf("%s imports %s; only oracle.go may", f, path)
			}
		}
	}
}
