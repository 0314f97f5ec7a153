package sim

import (
	"reflect"
	"testing"

	"malsched/internal/workload"
)

// TestRunDeterministic asserts the acceptance bar of the subsystem: a
// simulation is a pure function of (trace, Config) — bit-identical across
// repeated runs, probe and synthesis counts included. A planner policy must
// probe and a non-planner must not probe at all.
func TestRunDeterministic(t *testing.T) {
	tr, err := workload.Poisson(9, 16, 8, 1.2, "mixed")
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range Policies() {
		cfg := Config{Policy: policy, Epoch: 1.5, Noise: 0.15, Seed: 4, Preempt: PreemptRepartition}
		if policy != "replan-on-arrival" {
			cfg.Preempt = ""
		}
		planner := policy != "greedy-rigid"
		a, err := Run(tr, cfg)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		b, err := Run(tr, cfg)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two runs differ:\n%+v\nvs\n%+v", policy, a.Metrics, b.Metrics)
		}
		if planner != (a.Metrics.Probes > 0) {
			t.Fatalf("%s: planner=%v but the run probed %d times", policy, planner, a.Metrics.Probes)
		}
	}
}

// TestWarmReplanMatchesCold asserts the simulator-level warm-start
// invariant: a replan-on-arrival run with the default warm lineage is
// bit-identical to the same run under ColdReplan in every field except the
// probe accounting — and the warm run both synthesizes outcomes and
// consumes strictly fewer real probes than the cold one.
func TestWarmReplanMatchesCold(t *testing.T) {
	tr, err := workload.Poisson(9, 18, 8, 1.1, "mixed")
	if err != nil {
		t.Fatal(err)
	}
	for _, preempt := range []string{PreemptNone, PreemptRepartition} {
		cfg := Config{Policy: "replan-on-arrival", Preempt: preempt, Noise: 0.1, Seed: 3}
		warm, err := Run(tr, cfg)
		if err != nil {
			t.Fatalf("%s warm: %v", preempt, err)
		}
		coldCfg := cfg
		coldCfg.ColdReplan = true
		cold, err := Run(tr, coldCfg)
		if err != nil {
			t.Fatalf("%s cold: %v", preempt, err)
		}
		if warm.Metrics.Synthesized == 0 {
			t.Fatalf("%s: warm run synthesized nothing", preempt)
		}
		if cold.Metrics.Synthesized != 0 {
			t.Fatalf("%s: cold run synthesized %d outcomes", preempt, cold.Metrics.Synthesized)
		}
		if warm.Metrics.Probes >= cold.Metrics.Probes {
			t.Fatalf("%s: warm run probed %d, cold %d — warm must be strictly cheaper",
				preempt, warm.Metrics.Probes, cold.Metrics.Probes)
		}
		norm := *warm
		norm.Metrics.Probes = cold.Metrics.Probes
		norm.Metrics.Synthesized = 0
		if !reflect.DeepEqual(cold, &norm) {
			t.Fatalf("%s: warm replanning changed the simulation beyond probe accounting:\n%+v\nvs\n%+v",
				preempt, cold.Metrics, warm.Metrics)
		}
	}
}

// TestSharedEngineDeterministic asserts that a warm shared engine (memo
// and compiled caches full from a previous run) changes latency only: the
// replayed simulation is bit-identical to the cold one.
func TestSharedEngineDeterministic(t *testing.T) {
	tr, err := workload.Burst(2, 12, 6, 3, 5.0, "mixed")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Policy: "epoch-batch", Epoch: 2, Noise: 0.1, Seed: 7}
	cold, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared := cfg
	shared.Engine = newTestEngine()
	first, err := Run(tr, shared)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(tr, shared)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, first) || !reflect.DeepEqual(first, warm) {
		t.Fatal("shared/warm engine changed simulation results")
	}
}
