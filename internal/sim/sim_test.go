package sim

import (
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func baseConfig() Config {
	return Config{
		NewGraph:          func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(50, 2, r) },
		NewAttack:         func() attack.Strategy { return attack.NeighborOfMax{} },
		Healer:            core.DASH{},
		Trials:            3,
		Seed:              1,
		Rounds:            50,
		TrackConnectivity: true,
	}
}

func TestRunBasics(t *testing.T) {
	res := Run(baseConfig())
	if len(res.Trials) != 3 {
		t.Fatalf("trials = %d, want 3", len(res.Trials))
	}
	for i, tr := range res.Trials {
		if tr.N != 50 {
			t.Errorf("trial %d N = %d, want 50", i, tr.N)
		}
		if tr.Rounds != 50 {
			t.Errorf("trial %d rounds = %d, want 50 (delete all)", i, tr.Rounds)
		}
		if !tr.AlwaysConnected {
			t.Errorf("trial %d lost connectivity under DASH", i)
		}
		if tr.PeakMaxDelta <= 0 {
			t.Errorf("trial %d peak δ = %d, want > 0", i, tr.PeakMaxDelta)
		}
		if tr.MaxMessages <= 0 || tr.MaxIDChanges <= 0 {
			t.Errorf("trial %d message accounting empty", i)
		}
	}
	if res.HealerName != "DASH" || res.AttackName != "NeighborOfMax" {
		t.Errorf("names = %q/%q", res.HealerName, res.AttackName)
	}
	if res.PeakMaxDelta.N != 3 {
		t.Error("aggregation missing")
	}
	if !strings.Contains(res.String(), "DASH") {
		t.Error("String() should mention the healer")
	}
}

func TestRunDeterminism(t *testing.T) {
	a := Run(baseConfig())
	b := Run(baseConfig())
	for i := range a.Trials {
		if a.Trials[i] != b.Trials[i] {
			t.Fatalf("trial %d diverged:\n%+v\n%+v", i, a.Trials[i], b.Trials[i])
		}
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	a := Run(baseConfig())
	cfg := baseConfig()
	cfg.Seed = 2
	b := Run(cfg)
	same := 0
	for i := range a.Trials {
		if a.Trials[i] == b.Trials[i] {
			same++
		}
	}
	if same == len(a.Trials) {
		t.Error("different seeds produced identical trials")
	}
}

// TestDeleteFraction deletes half the nodes: Rounds caps the trial.
func TestDeleteFraction(t *testing.T) {
	cfg := baseConfig()
	cfg.Rounds = 25
	res := Run(cfg)
	for _, tr := range res.Trials {
		if tr.Rounds != 25 {
			t.Errorf("rounds = %d, want 25 of 50", tr.Rounds)
		}
	}
}

func TestStretchMeasurement(t *testing.T) {
	cfg := baseConfig()
	cfg.StretchEvery = 5
	cfg.NewAttack = func() attack.Strategy { return attack.MaxDegree{} }
	res := Run(cfg)
	for _, tr := range res.Trials {
		if tr.MaxStretch < 1 {
			t.Errorf("stretch = %v, want >= 1", tr.MaxStretch)
		}
	}
}

func TestNoHealDisconnects(t *testing.T) {
	cfg := baseConfig()
	cfg.Healer = baseline.NoHeal{}
	res := Run(cfg)
	for _, tr := range res.Trials {
		if tr.AlwaysConnected {
			t.Error("NoHeal under NMS should disconnect a BA graph")
		}
		if tr.EdgesAdded != 0 {
			t.Error("NoHeal added edges")
		}
	}
}

func TestSurrogationCounting(t *testing.T) {
	cfg := baseConfig()
	cfg.Healer = core.SDASH{}
	res := Run(cfg)
	total := 0
	for _, tr := range res.Trials {
		total += tr.Surrogations
	}
	if total == 0 {
		t.Error("SDASH never surrogated across full BA runs; expected some")
	}
}

func TestLevelAttackThroughSim(t *testing.T) {
	tr := gen.CompleteKaryTree(4, 3) // M=2 construction
	cfg := Config{
		NewGraph:  func(*rng.RNG) *graph.Graph { return tr.G.Clone() },
		NewAttack: func() attack.Strategy { return attack.NewLevelAttack(tr, 2) },
		Healer:    baseline.LineHeal{},
		Trials:    2,
		Seed:      9,
		Rounds:    tr.G.N(),
	}
	res := Run(cfg)
	for _, trial := range res.Trials {
		if trial.PeakMaxDelta < 3 {
			t.Errorf("LevelAttack peak δ = %d, want ≥ depth 3", trial.PeakMaxDelta)
		}
	}
}

// verifyingAttack wraps an adversary and runs core.State.Verify before
// every pick, so each round's heal is checked before the next deletion;
// the test verifies the final state itself.
type verifyingAttack struct {
	attack.Strategy
	gpCyclesOK bool
	s          *core.State
	err        error
}

func (a *verifyingAttack) Next(s *core.State, r *rng.RNG) int {
	a.s = s
	if a.err == nil {
		a.err = s.Verify(a.gpCyclesOK)
	}
	return a.Strategy.Next(s, r)
}

// invariantErrors runs cfg with every adversary wrapped in a
// verifyingAttack and returns the first violation of each trial.
func invariantErrors(cfg Config, gpCyclesOK bool) []error {
	var atts []*verifyingAttack
	newAttack := cfg.NewAttack
	cfg.NewAttack = func() attack.Strategy {
		a := &verifyingAttack{Strategy: newAttack(), gpCyclesOK: gpCyclesOK}
		atts = append(atts, a)
		return a
	}
	cfg.Workers = 1 // NewAttack appends to atts
	Run(cfg)
	var errs []error
	for _, a := range atts {
		if a.s == nil {
			continue // the instance Run builds only to read the name
		}
		if a.err == nil {
			a.err = a.s.Verify(gpCyclesOK)
		}
		errs = append(errs, a.err)
	}
	return errs
}

// TestInvariantsHoldEveryRound checks core's invariants after every
// round: DASH keeps them all, GraphHeal keeps them once G' cycles are
// exempt, and without the exemption GraphHeal is caught.
func TestInvariantsHoldEveryRound(t *testing.T) {
	cfg := baseConfig()
	errs := invariantErrors(cfg, false)
	if len(errs) != cfg.Trials {
		t.Fatalf("checked %d trials, want %d", len(errs), cfg.Trials)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("trial %d: %v", i, err)
		}
	}
	cfg.Healer = baseline.GraphHeal{}
	for i, err := range invariantErrors(cfg, true) {
		if err != nil {
			t.Errorf("GraphHeal trial %d: %v", i, err)
		}
	}
	caught := false
	for _, err := range invariantErrors(cfg, false) {
		caught = caught || err != nil
	}
	if !caught {
		t.Error("GraphHeal should trip the forest invariant")
	}
}

func TestRunPanicsOnBadConfig(t *testing.T) {
	noRounds := baseConfig()
	noRounds.Rounds = 0
	for name, cfg := range map[string]Config{
		"missing healer": {NewGraph: func(*rng.RNG) *graph.Graph { return graph.New(1) }},
		"zero rounds":    noRounds,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			Run(cfg)
		}()
	}
}

// TestAttackExhaustsEarly is the NoTarget regression test: an adversary
// that runs out of victims mid-run must stop the trial cleanly — no
// panic, no healer invocation on a dead node — even though the config
// asked for a full deletion sweep.
func TestAttackExhaustsEarly(t *testing.T) {
	cfg := Config{
		NewGraph:  func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(40, 2, r) },
		NewAttack: func() attack.Strategy { return &attack.Limited{Inner: attack.Random{}, Budget: 7} },
		Healer:    core.DASH{},
		Trials:    3,
		Seed:      99,
		// Delete everything — except the attack gives up first.
		Rounds:            40,
		TrackConnectivity: true,
	}
	res := Run(cfg)
	for i, tr := range res.Trials {
		if tr.Rounds != 7 {
			t.Fatalf("trial %d ran %d rounds, budget was 7", i, tr.Rounds)
		}
		if !tr.AlwaysConnected {
			t.Fatalf("trial %d disconnected", i)
		}
	}
}
