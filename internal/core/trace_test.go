package core

import (
	"reflect"
	"testing"

	"malsched/internal/instance"
)

// Tracing must be pure observation: enabling it cannot change any result
// field, and the consumed trajectory must be identical across drivers.

func TestTraceBitIdentity(t *testing.T) {
	for _, fam := range []string{"mixed", "comm-heavy"} {
		gen := instance.Families()[fam]
		for seed := int64(1); seed <= 5; seed++ {
			in := gen(seed, 20, 12)
			base, err := Approximate(in, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 4} {
				tr := &SolveTrace{}
				got, err := Approximate(in, Options{Parallelism: par, Trace: tr})
				if err != nil {
					t.Fatal(err)
				}
				if got.Makespan != base.Makespan || got.LowerBound != base.LowerBound ||
					got.AcceptedLambda != base.AcceptedLambda || got.Branch != base.Branch {
					t.Fatalf("%s/%d par=%d: traced result differs from untraced", fam, seed, par)
				}
				if !reflect.DeepEqual(got.Schedule, base.Schedule) {
					t.Fatalf("%s/%d par=%d: traced schedule differs", fam, seed, par)
				}
				if len(tr.Probes) == 0 {
					t.Fatalf("%s/%d par=%d: empty trace", fam, seed, par)
				}
				if tr.SearchNS <= 0 {
					t.Fatalf("%s/%d par=%d: SearchNS = %d", fam, seed, par, tr.SearchNS)
				}
			}
		}
	}
}

// TestTraceConsumptionOrder asserts the trace is driver-independent: the
// sequential and speculative drivers record the same consumed trajectory.
func TestTraceConsumptionOrder(t *testing.T) {
	in := instance.Families()["mixed"](7, 24, 16)
	seq := &SolveTrace{}
	if _, err := Approximate(in, Options{Trace: seq}); err != nil {
		t.Fatal(err)
	}
	spec := &SolveTrace{}
	if _, err := Approximate(in, Options{Parallelism: 8, Trace: spec}); err != nil {
		t.Fatal(err)
	}
	seq.SearchNS, spec.SearchNS = 0, 0
	if !reflect.DeepEqual(seq, spec) {
		t.Fatalf("consumed trajectories differ:\n seq: %+v\nspec: %+v", seq.Probes, spec.Probes)
	}
	// Accepted probes carry RejectNone; rejected certified probes a reason.
	last := seq.Probes[len(seq.Probes)-1]
	sawAccept := false
	for _, p := range seq.Probes {
		if p.Accepted {
			sawAccept = true
			if p.Reject != RejectNone {
				t.Fatalf("accepted probe carries reject reason %v", p.Reject)
			}
		}
		if p.Segment < 0 {
			t.Fatalf("probe missing its λ-segment: %+v", p)
		}
		_ = last
	}
	if !sawAccept {
		t.Fatal("trace has no accepted probe")
	}
}

// TestTraceWarm asserts warm-mode traces mark synthesized outcomes and
// keep the accept/reject sequence of the cold search.
func TestTraceWarm(t *testing.T) {
	in := instance.Families()["mixed"](3, 20, 12)
	cold := &SolveTrace{}
	base, err := Approximate(in, Options{Trace: cold})
	if err != nil {
		t.Fatal(err)
	}
	ws := &WarmStart{}
	if _, err := Approximate(in, Options{WarmStart: ws}); err != nil {
		t.Fatal(err)
	}
	warm := &SolveTrace{}
	got, err := Approximate(in, Options{WarmStart: ws, Trace: warm})
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != base.Makespan || got.AcceptedLambda != base.AcceptedLambda {
		t.Fatal("warm traced result differs from cold")
	}
	if len(warm.Probes) != len(cold.Probes) {
		t.Fatalf("warm consumed %d probes, cold %d", len(warm.Probes), len(cold.Probes))
	}
	sawSynth := false
	for i, p := range warm.Probes {
		if p.Lambda != cold.Probes[i].Lambda || p.Accepted != cold.Probes[i].Accepted {
			t.Fatalf("warm probe %d diverges: %+v vs %+v", i, p, cold.Probes[i])
		}
		sawSynth = sawSynth || p.Synthesized
	}
	if !sawSynth {
		t.Fatal("warm trace marked no synthesized outcomes")
	}
}
