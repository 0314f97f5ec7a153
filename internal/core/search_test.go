package core

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/lowerbound"
	"malsched/internal/task"
)

// recordingProber wraps the paper's dual step and records every guess it is
// asked to evaluate, from any goroutine.
type recordingProber struct {
	mu      sync.Mutex
	lambdas []float64
}

func (r *recordingProber) Probe(in *instance.Instance, c *instance.Compiled, lambda float64, p Params, sc *Scratch, interrupt <-chan struct{}) StepResult {
	r.mu.Lock()
	r.lambdas = append(r.lambdas, lambda)
	r.mu.Unlock()
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

// The speculative search must return bit-identical results to the
// sequential one at every parallelism level: same schedule, same
// certificates, same accepted guess. Only the probe accounting may differ,
// and the consumed share must equal the sequential probe count exactly.
func TestApproximateSpeculativeBitIdentical(t *testing.T) {
	for _, in := range searchTestInstances() {
		seq, err := Approximate(in, Options{})
		if err != nil {
			t.Fatalf("%s: sequential: %v", in.Name, err)
		}
		for _, k := range []int{2, 4, 8} {
			spec, err := Approximate(in, Options{Parallelism: k})
			if err != nil {
				t.Fatalf("%s: parallelism %d: %v", in.Name, k, err)
			}
			if math.Float64bits(spec.Makespan) != math.Float64bits(seq.Makespan) ||
				math.Float64bits(spec.LowerBound) != math.Float64bits(seq.LowerBound) ||
				math.Float64bits(spec.AcceptedLambda) != math.Float64bits(seq.AcceptedLambda) ||
				spec.Branch != seq.Branch ||
				spec.UnprovenRejects != seq.UnprovenRejects {
				t.Errorf("%s: parallelism %d diverged: got %+v, want %+v", in.Name, k, spec, seq)
			}
			if !reflect.DeepEqual(spec.Schedule.Placements, seq.Schedule.Placements) {
				t.Errorf("%s: parallelism %d produced a different plan", in.Name, k)
			}
			if consumed := spec.Probes - spec.Speculated; consumed != seq.Probes {
				t.Errorf("%s: parallelism %d consumed %d probes, sequential used %d",
					in.Name, k, consumed, seq.Probes)
			}
			if seq.Speculated != 0 {
				t.Errorf("%s: sequential search reported %d speculated probes", in.Name, seq.Speculated)
			}
		}
	}
}

// No λ is ever probed twice — the bisection replays recorded outcomes
// instead of re-running the dual step, and the speculative tree only ever
// materialises fresh interior guesses. Probes must count exactly the
// executed dual steps.
func TestApproximateNoDuplicateProbes(t *testing.T) {
	for _, in := range searchTestInstances() {
		for _, k := range []int{1, 8} {
			rec := &recordingProber{}
			res, err := Approximate(in, Options{Parallelism: k, Prober: rec})
			if err != nil {
				t.Fatalf("%s: parallelism %d: %v", in.Name, k, err)
			}
			if len(rec.lambdas) != res.Probes {
				t.Errorf("%s: parallelism %d: prober saw %d guesses, Probes = %d",
					in.Name, k, len(rec.lambdas), res.Probes)
			}
			seen := make(map[float64]bool, len(rec.lambdas))
			for _, l := range rec.lambdas {
				if seen[l] {
					t.Errorf("%s: parallelism %d: guess λ=%v probed twice", in.Name, k, l)
				}
				seen[l] = true
			}
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
	for _, k := range []int{1, 4} {
		_, err := Approximate(in, Options{Parallelism: k})
		if !errors.Is(err, ErrZeroLowerBound) {
			t.Fatalf("parallelism %d: err = %v, want ErrZeroLowerBound", k, err)
		}
	}
}

// A fired interrupt aborts the speculative search like the sequential one.
func TestApproximateSpeculativeInterrupt(t *testing.T) {
	in := instance.Families()["mixed"](1, 40, 32)
	ch := make(chan struct{})
	close(ch)
	_, err := Approximate(in, Options{Parallelism: 4, Interrupt: ch})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}
