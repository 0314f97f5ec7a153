package core

import (
	"reflect"
	"testing"

	"malsched/internal/instance"
)

// Tracing must be pure observation: enabling it cannot change any result
// field, and the trajectory must be the probe order itself.

func TestTraceBitIdentity(t *testing.T) {
	for _, fam := range []string{"mixed", "comm-heavy"} {
		gen := instance.Families()[fam]
		for seed := int64(1); seed <= 5; seed++ {
			in := gen(seed, 20, 12)
			base, err := Approximate(in, Options{})
			if err != nil {
				t.Fatal(err)
			}
			tr := &SolveTrace{}
			got, err := Approximate(in, Options{Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			if got.Makespan != base.Makespan || got.LowerBound != base.LowerBound ||
				got.AcceptedLambda != base.AcceptedLambda || got.Branch != base.Branch {
				t.Fatalf("%s/%d: traced result differs from untraced", fam, seed)
			}
			if !reflect.DeepEqual(got.Schedule, base.Schedule) {
				t.Fatalf("%s/%d: traced schedule differs", fam, seed)
			}
			if len(tr.Probes) == 0 {
				t.Fatalf("%s/%d: empty trace", fam, seed)
			}
			if tr.SearchNS <= 0 {
				t.Fatalf("%s/%d: SearchNS = %d", fam, seed, tr.SearchNS)
			}
		}
	}
}

// TestTraceConsumptionOrder asserts the trace records the guesses in the
// order the prober evaluated them, and that two traced searches of one
// instance record the same trajectory.
func TestTraceConsumptionOrder(t *testing.T) {
	in := instance.Families()["mixed"](7, 24, 16)
	seq := &SolveTrace{}
	if _, err := Approximate(in, Options{Trace: seq}); err != nil {
		t.Fatal(err)
	}
	rec := &recordingProber{}
	again := &SolveTrace{}
	if _, err := Approximate(in, Options{Prober: rec, Trace: again}); err != nil {
		t.Fatal(err)
	}
	seq.SearchNS, again.SearchNS = 0, 0
	if !reflect.DeepEqual(seq, again) {
		t.Fatalf("trajectories differ:\n first: %+v\nsecond: %+v", seq.Probes, again.Probes)
	}
	if len(rec.lambdas) != len(seq.Probes) {
		t.Fatalf("trace has %d probes, prober saw %d", len(seq.Probes), len(rec.lambdas))
	}
	for i, p := range seq.Probes {
		if p.Lambda != rec.lambdas[i] {
			t.Fatalf("trace probe %d at λ=%v, prober saw λ=%v", i, p.Lambda, rec.lambdas[i])
		}
	}
	// Accepted probes carry RejectNone; rejected certified probes a reason.
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
		t.Fatalf("warm traced %d probes, cold %d", len(warm.Probes), len(cold.Probes))
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
