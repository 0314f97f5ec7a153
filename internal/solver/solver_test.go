package solver

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"malsched/internal/core"
	"malsched/internal/exact"
	"malsched/internal/instance"
	"malsched/internal/schedule"
	"malsched/internal/task"
)

func TestRegistryHasAllBuiltins(t *testing.T) {
	want := []string{
		"dag", "dag-crossover", "exact", "full-parallel", "mrt", "portfolio",
		"seq-lpt", "twy-bld", "twy-ffdh", "twy-list", "twy-nfdh",
	}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		s, ok := Lookup(name)
		if !ok || s.Name() != name {
			t.Fatalf("Lookup(%q) = %v, %v", name, s, ok)
		}
	}
	if _, ok := Lookup("no-such-solver"); ok {
		t.Fatal("Lookup of unknown name succeeded")
	}
}

// Every registered solver must return a valid plan with a certified bound
// ≥-consistent with its makespan (ratio ≥ 1 within tolerance).
func TestBuiltinSolversProduceValidCertifiedPlans(t *testing.T) {
	ins := []*instance.Instance{
		instance.Families()["mixed"](3, 20, 16),
		instance.MustNew("tiny", 4, []task.Task{
			task.Linear("a", 4, 4), task.Sequential("b", 2, 4), task.Amdahl("c", 6, 0.2, 4),
		}),
	}
	for _, in := range ins {
		for _, name := range Names() {
			s, _ := Lookup(name)
			sol, err := s.Solve(in, Options{})
			if name == ExactSolverName && in.N() > exact.MaxTasks {
				if !errors.Is(err, exact.ErrTooLarge) {
					t.Errorf("%s on %s: want ErrTooLarge, got %v", name, in.Name, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s on %s: %v", name, in.Name, err)
				continue
			}
			contiguous := name != "twy-list" && name != ExactSolverName && name != PortfolioName
			if err := schedule.Validate(in, sol.Plan, contiguous); err != nil {
				t.Errorf("%s on %s: invalid plan: %v", name, in.Name, err)
			}
			if !(sol.LowerBound > 0) || sol.Makespan < sol.LowerBound-1e-9 {
				t.Errorf("%s on %s: makespan %v vs lower bound %v", name, in.Name, sol.Makespan, sol.LowerBound)
			}
			if sol.Solver == "" || sol.Branch == "" {
				t.Errorf("%s on %s: missing provenance %+v", name, in.Name, sol)
			}
		}
	}
}

// The portfolio satellite: on a fixed seed grid the portfolio's makespan is
// ≤ every member's, its lower bound is ≥ every member's, and its output is
// identical across repeated runs (the -race CI pass runs this file, so the
// concurrent fan-out is also race-checked).
func TestPortfolioDeterministicAndDominant(t *testing.T) {
	p, _ := Lookup(PortfolioName)
	members := p.(*Portfolio).members
	var grid []*instance.Instance
	for _, fam := range []string{"mixed", "powerlaw-0.7", "wide-parallel"} {
		gen := instance.Families()[fam]
		for seed := int64(1); seed <= 4; seed++ {
			grid = append(grid, gen(seed, 18, 16))
		}
	}
	grid = append(grid, instance.MustNew("tiny-exact", 3, []task.Task{
		task.Linear("a", 3, 3), task.Sequential("b", 1, 3),
	}))

	for _, in := range grid {
		ref, err := p.Solve(in, Options{})
		if err != nil {
			t.Fatalf("portfolio on %s: %v", in.Name, err)
		}
		for _, name := range members {
			m, _ := Lookup(name)
			sol, err := m.Solve(in, Options{})
			if errors.Is(err, exact.ErrTooLarge) {
				continue
			}
			if err != nil {
				t.Fatalf("%s on %s: %v", name, in.Name, err)
			}
			if ref.Makespan > sol.Makespan+1e-12 {
				t.Errorf("%s: portfolio makespan %v worse than member %s's %v",
					in.Name, ref.Makespan, name, sol.Makespan)
			}
			if ref.LowerBound < sol.LowerBound-1e-12 {
				t.Errorf("%s: portfolio bound %v weaker than member %s's %v",
					in.Name, ref.LowerBound, name, sol.LowerBound)
			}
		}
		for run := 1; run <= 3; run++ {
			got, err := p.Solve(in, Options{})
			if err != nil {
				t.Fatalf("portfolio run %d on %s: %v", run, in.Name, err)
			}
			if math.Float64bits(got.Makespan) != math.Float64bits(ref.Makespan) ||
				math.Float64bits(got.LowerBound) != math.Float64bits(ref.LowerBound) ||
				got.Solver != ref.Solver || got.Branch != ref.Branch {
				t.Errorf("%s: run %d changed the portfolio outcome: %+v vs %+v",
					in.Name, run, got, ref)
			}
			if !reflect.DeepEqual(got.Plan.Placements, ref.Plan.Placements) {
				t.Errorf("%s: run %d changed the portfolio plan", in.Name, run)
			}
		}
	}
}

// On tiny instances the exact member wins the portfolio outright: its
// makespan is the optimum, so the certified ratio collapses to 1.
func TestPortfolioExactWinsTiny(t *testing.T) {
	in := instance.MustNew("tiny", 3, []task.Task{
		task.Linear("a", 3, 3), task.Linear("b", 3, 3), task.Sequential("c", 1, 3),
	})
	p, _ := Lookup(PortfolioName)
	sol, err := p.Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := exact.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Makespan-opt) > 1e-9 {
		t.Fatalf("portfolio makespan %v, optimum %v", sol.Makespan, opt)
	}
	if sol.LowerBound < opt-1e-9 {
		t.Fatalf("portfolio bound %v below optimum %v", sol.LowerBound, opt)
	}
}

func TestNewPortfolioRejectsRecursionAndEmpty(t *testing.T) {
	if _, err := NewPortfolio("p", nil); err == nil {
		t.Fatal("empty member list accepted")
	}
	if _, err := NewPortfolio("p", []string{PortfolioName}); err == nil {
		t.Fatal("recursive member accepted")
	}
}

// A fired interrupt (the engine's per-instance timeout) must abort the
// portfolio with the interrupt error — never degrade to a slower member's
// result, which would leak a timing-dependent answer into the memo.
func TestPortfolioPropagatesInterrupt(t *testing.T) {
	in := instance.Families()["mixed"](2, 30, 16)
	ch := make(chan struct{})
	close(ch)
	p, _ := Lookup(PortfolioName)
	_, err := p.Solve(in, Options{Interrupt: ch})
	if !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("err = %v, want core.ErrInterrupted", err)
	}
}

// The exact solver honours the interrupt hook too, reporting through the
// same error the engine's timeout accounting matches on.
func TestExactSolverInterruptible(t *testing.T) {
	in := instance.MustNew("tiny", 3, []task.Task{
		task.Linear("a", 3, 3), task.Linear("b", 2, 3), task.Sequential("c", 1, 3),
	})
	ch := make(chan struct{})
	close(ch)
	s, _ := Lookup(ExactSolverName)
	_, err := s.Solve(in, Options{Interrupt: ch})
	if !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("err = %v, want core.ErrInterrupted", err)
	}
}
