package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"malsched/internal/instance"
)

// assertWarmColdIdentical compares a warm result against its cold reference
// bit by bit: makespan, λ*, certified lower bound, branch, unproven-reject
// count and the full placement vector. Probes/Synthesized are the only
// fields allowed to differ — they report how the identical answer
// was paid for.
func assertWarmColdIdentical(t *testing.T, ctx string, warm, cold Result) {
	t.Helper()
	if math.Float64bits(warm.Makespan) != math.Float64bits(cold.Makespan) ||
		math.Float64bits(warm.LowerBound) != math.Float64bits(cold.LowerBound) ||
		math.Float64bits(warm.AcceptedLambda) != math.Float64bits(cold.AcceptedLambda) ||
		warm.Branch != cold.Branch ||
		warm.UnprovenRejects != cold.UnprovenRejects {
		t.Errorf("%s: warm diverged: got %+v, want %+v", ctx, warm, cold)
	}
	if !reflect.DeepEqual(warm.Schedule.Placements, cold.Schedule.Placements) {
		t.Errorf("%s: warm produced a different plan", ctx)
	}
}

// residualStream builds a deterministic arrival stream over a compiled
// workload: step k carves a pseudo-random subset of the tasks (the "queue"
// after the k-th burst), some with partial remaining work (the repartition
// model), onto a machine that shrinks and grows with the load.
func residualStream(t *testing.T, c *instance.Compiled, seed int64, steps int) []*instance.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := c.N()
	var out []*instance.Instance
	for k := 0; k < steps; k++ {
		var ids []int
		var rem []float64
		for id := 0; id < n; id++ {
			if rng.Float64() < 0.6 {
				continue
			}
			ids = append(ids, id)
			if rng.Float64() < 0.3 {
				rem = append(rem, 0.1+0.9*rng.Float64())
			} else {
				rem = append(rem, 1.0)
			}
		}
		if len(ids) == 0 {
			ids = append(ids, rng.Intn(n))
			rem = append(rem, 1.0)
		}
		m := 1 + rng.Intn(c.M())
		in, err := instance.Residual(c, "stream", m, ids, rem)
		if err != nil {
			t.Fatalf("residual step %d: %v", k, err)
		}
		out = append(out, in)
	}
	return out
}

// Warm-vs-cold equivalence over every instance family and a seeded arrival
// stream: at each replanning point the warm search (threading one WarmStart
// through the whole stream, exactly as the engine's warm state does) must
// return bit-identical results to a cold solve of the same residual
// instance. The warm run must also never execute more dual steps than the
// cold one.
func TestWarmColdEquivalenceStream(t *testing.T) {
	for fam, gen := range instance.Families() {
		full := gen(7, 24, 16)
		c := instance.Compile(full)
		stream := residualStream(t, c, 11, 8)
		ws := &WarmStart{}
		sc := NewScratch()
		totalSynth, totalWarmProbes, totalColdProbes := 0, 0, 0
		for k, in := range stream {
			rc := instance.Compile(in)
			cold, err := Approximate(in, Options{Compiled: rc})
			if err != nil {
				t.Fatalf("%s[%d]: cold: %v", fam, k, err)
			}
			warm, err := Approximate(in, Options{Compiled: rc, Scratch: sc, WarmStart: ws})
			if err != nil {
				t.Fatalf("%s[%d]: warm: %v", fam, k, err)
			}
			assertWarmColdIdentical(t, fam, warm, cold)
			if warm.Probes > cold.Probes {
				t.Errorf("%s[%d]: warm ran %d real probes, cold %d", fam, k, warm.Probes, cold.Probes)
			}
			if bits := math.Float64bits(ws.AcceptedLambda); bits != math.Float64bits(warm.AcceptedLambda) {
				t.Errorf("%s[%d]: seed not updated: λ*=%v, result %v", fam, k, ws.AcceptedLambda, warm.AcceptedLambda)
			}
			if !(ws.Floor > 0 && ws.Floor <= ws.AcceptedLambda) {
				t.Errorf("%s[%d]: seed floor not updated: floor=%v, λ*=%v", fam, k, ws.Floor, ws.AcceptedLambda)
			}
			totalSynth += warm.Synthesized
			totalWarmProbes += warm.Probes
			totalColdProbes += cold.Probes
			sc.DropCompiled(rc)
		}
		if totalSynth == 0 {
			t.Errorf("%s: warm stream never synthesized a probe", fam)
		}
		if totalWarmProbes >= totalColdProbes {
			t.Errorf("%s: warm stream used %d real probes, cold %d — no saving", fam, totalWarmProbes, totalColdProbes)
		}
	}
}

// A corrupt or stale warm seed must never change the answer: the seed only
// decides what is synthesized, which is outcome-exact by construction.
func TestWarmGarbageSeedsHarmless(t *testing.T) {
	gen := instance.Families()["mixed"]
	in := gen(3, 20, 12)
	c := instance.Compile(in)
	cold, err := Approximate(in, Options{Compiled: c})
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	seeds := map[string]*WarmStart{
		"zero":         {},
		"nan":          {AcceptedLambda: math.NaN(), Floor: math.NaN()},
		"inf":          {AcceptedLambda: math.Inf(1), Floor: math.Inf(-1)},
		"negative":     {AcceptedLambda: -5, Floor: -10},
		"stale-lambda": {AcceptedLambda: cold.AcceptedLambda * 1e6, Floor: cold.AcceptedLambda * 1e5},
		"tiny-lambda":  {AcceptedLambda: cold.AcceptedLambda * 1e-9},
		"inverted":     {AcceptedLambda: cold.AcceptedLambda / 2, Floor: cold.AcceptedLambda * 2},
	}
	for name, ws := range seeds {
		seed := *ws
		warm, err := Approximate(in, Options{Compiled: c, WarmStart: &seed})
		if err != nil {
			t.Fatalf("seed %q: %v", name, err)
		}
		assertWarmColdIdentical(t, "seed "+name, warm, cold)
	}
}

// An instrumented prober must keep deciding the search alone: warm mode
// with a custom Prober disables synthesis, so the prober sees every guess
// exactly as in a cold run.
func TestWarmCustomProberSeesEveryGuess(t *testing.T) {
	gen := instance.Families()["wide-parallel"]
	in := gen(9, 18, 16)
	c := instance.Compile(in)
	coldRec := &recordingProber{}
	cold, err := Approximate(in, Options{Compiled: c, Prober: coldRec})
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	warmRec := &recordingProber{}
	ws := &WarmStart{AcceptedLambda: cold.AcceptedLambda}
	warm, err := Approximate(in, Options{Compiled: c, Prober: warmRec, WarmStart: ws})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	assertWarmColdIdentical(t, "custom-prober", warm, cold)
	if warm.Synthesized != 0 {
		t.Errorf("synthesis ran behind an instrumented prober (%d probes)", warm.Synthesized)
	}
	if !reflect.DeepEqual(warmRec.lambdas, coldRec.lambdas) {
		t.Errorf("instrumented prober saw %v warm, %v cold", warmRec.lambdas, coldRec.lambdas)
	}
}
