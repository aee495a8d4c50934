package repro

import (
	"math"
	"testing"
)

func TestHealerByName(t *testing.T) {
	for _, name := range HealerNames() {
		h, err := HealerByName(name)
		if err != nil {
			t.Errorf("HealerByName(%q): %v", name, err)
		}
		if h.Name() != name {
			t.Errorf("resolved %q, want %q", h.Name(), name)
		}
	}
	if _, err := HealerByName("nope"); err == nil {
		t.Error("unknown healer should error")
	}
}

func TestAttackByName(t *testing.T) {
	for _, name := range []string{"MaxNode", "NeighborOfMax", "Random", "MinNode", "CutVertex"} {
		f, err := AttackByName(name)
		if err != nil {
			t.Fatalf("AttackByName(%q): %v", name, err)
		}
		if f().Name() != name {
			t.Errorf("resolved %q, want %q", f().Name(), name)
		}
	}
	if _, err := AttackByName("nope"); err == nil {
		t.Error("unknown attack should error")
	}
}

func TestNewBAGraphDeterministic(t *testing.T) {
	a := NewBAGraph(100, 3, 7)
	b := NewBAGraph(100, 3, 7)
	if !a.Equal(b) {
		t.Fatal("same seed gave different graphs")
	}
	if !a.Connected() {
		t.Fatal("BA graph must be connected")
	}
}

func TestSimulationFullRun(t *testing.T) {
	n := 128
	s := NewSimulation(NewBAGraph(n, 3, 1), DASH, NeighborOfMax, 2)
	steps := 0
	for s.Step() {
		steps++
		if !s.State.G.Connected() {
			t.Fatal("DASH lost connectivity")
		}
	}
	if steps != n {
		t.Errorf("steps = %d, want %d", steps, n)
	}
	if !s.Step() {
		// After the run, Step keeps returning false.
	} else {
		t.Error("Step on empty network should return false")
	}
	if d := float64(s.State.MaxDelta()); d > 2*math.Log2(float64(n)) {
		t.Errorf("max δ %v above guarantee", d)
	}
}

func TestSimulationLastHeal(t *testing.T) {
	s := NewSimulation(NewBAGraph(64, 3, 3), SDASH, MaxNode, 4)
	if !s.Step() {
		t.Fatal("first step failed")
	}
	if s.LastHeal().RTSize == 0 {
		t.Error("deleting the hub of a BA graph must yield a nonempty RT")
	}
}

func TestRunFacade(t *testing.T) {
	res := Run(Config{
		NewGraph:          BAGen(64, 3),
		NewAttack:         NeighborOfMax,
		Healer:            DASH,
		Trials:            3,
		Seed:              5,
		Rounds:            64,
		TrackConnectivity: true,
	})
	if len(res.Trials) != 3 {
		t.Fatalf("trials = %d, want 3", len(res.Trials))
	}
	for _, tr := range res.Trials {
		if !tr.AlwaysConnected {
			t.Error("DASH trial lost connectivity")
		}
	}
	if res.PeakMaxDelta.Mean > 2*math.Log2(64) {
		t.Errorf("mean peak δ %v above guarantee", res.PeakMaxDelta.Mean)
	}
}
