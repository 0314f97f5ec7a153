package core

import (
	"errors"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/lowerbound"
	"malsched/internal/task"
)

// recordingProber wraps the paper's dual step and records every guess it is
// asked to evaluate.
type recordingProber struct {
	lambdas []float64
}

func (r *recordingProber) Probe(in *instance.Instance, c *instance.Compiled, lambda float64, p Params, sc *Scratch, interrupt <-chan struct{}) StepResult {
	r.lambdas = append(r.lambdas, lambda)
	return DualProber{}.Probe(in, c, lambda, p, sc, interrupt)
}

func searchTestInstances() []*instance.Instance {
	var ins []*instance.Instance
	for _, fam := range []string{"mixed", "comm-heavy", "wide-parallel"} {
		gen := instance.Families()[fam]
		for seed := int64(1); seed <= 3; seed++ {
			ins = append(ins, gen(seed, 30, 32), gen(seed, 15, 8))
		}
	}
	return ins
}

// No λ is ever probed twice — every probed guess becomes an interval
// endpoint and every later guess is strictly interior. Probes must count
// exactly the executed dual steps.
func TestApproximateNoDuplicateProbes(t *testing.T) {
	for _, in := range searchTestInstances() {
		rec := &recordingProber{}
		res, err := Approximate(in, Options{Prober: rec})
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if len(rec.lambdas) != res.Probes {
			t.Errorf("%s: prober saw %d guesses, Probes = %d", in.Name, len(rec.lambdas), res.Probes)
		}
		seen := make(map[float64]bool, len(rec.lambdas))
		for _, l := range rec.lambdas {
			if seen[l] {
				t.Errorf("%s: guess λ=%v probed twice", in.Name, l)
			}
			seen[l] = true
		}
	}
}

// An instance whose trivial lower bound is already achievable is accepted
// on the very first probe: one dual step, no bisection.
func TestApproximateProbeCountImmediateAccept(t *testing.T) {
	in := instance.MustNew("one-task", 1, []task.Task{task.Sequential("a", 3, 1)})
	rec := &recordingProber{}
	res, err := Approximate(in, Options{Prober: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes != 1 || len(rec.lambdas) != 1 {
		t.Fatalf("Probes = %d (prober saw %d), want exactly 1", res.Probes, len(rec.lambdas))
	}
	if lb := lowerbound.Trivial(in); res.AcceptedLambda != lb {
		t.Fatalf("AcceptedLambda = %v, want the trivial bound %v", res.AcceptedLambda, lb)
	}
}

// A hand-rolled instance with no tasks has a zero trivial lower bound; the
// search must refuse it with the typed error instead of doubling 0 forever.
func TestApproximateZeroLowerBound(t *testing.T) {
	in := &instance.Instance{Name: "empty", M: 4}
	if _, err := Approximate(in, Options{}); !errors.Is(err, ErrZeroLowerBound) {
		t.Fatalf("err = %v, want ErrZeroLowerBound", err)
	}
}
