package core

import (
	"testing"

	"malsched/internal/instance"
)

// coldPool is BenchmarkApproximateCold's workload: 2 048 distinct 24×16
// mixed instances (the benchmark's serve-cold shape), compiled.
func coldPool() ([]*instance.Instance, []*instance.Compiled) {
	const pool = 2048
	ins := make([]*instance.Instance, pool)
	cs := make([]*instance.Compiled, pool)
	for i := range ins {
		ins[i] = instance.Mixed(int64(i), 24, 16)
		cs[i] = instance.Compile(ins[i])
	}
	return ins, cs
}

// BenchmarkApproximateCold is the cold search alone: the pool's instances
// solved in turn on one Scratch with the tables supplied, so every search
// meets its allotments for the first time and the segment cache recycles
// as it does under cold traffic. docs/BENCHMARKS.md's section "The cold
// dual step" reads it.
func BenchmarkApproximateCold(b *testing.B) {
	ins, cs := coldPool()
	sc := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(ins)
		if _, err := Approximate(ins[k], Options{Compiled: cs[k], Scratch: sc}); err != nil {
			b.Fatal(err)
		}
	}
}

// The probe deadline and the malleable list's relaxed one share one
// λ-index, so a relaxed lookup lands between entries the probes left and
// hits, or stages only the tasks its neighbours disagree on. Counted over
// BenchmarkApproximateCold's pool: lookups that staged γ, per search,
// summed over the Scratch's indexes — 14.04 with one index per deadline,
// 12.52 with one for both. Deterministic: one Scratch, one pass, in order.
func TestColdSearchStagesLess(t *testing.T) {
	const budget = 12.6
	ins, cs := coldPool()
	sc := NewScratch()
	for k := range ins {
		if _, err := Approximate(ins[k], Options{Compiled: cs[k], Scratch: sc}); err != nil {
			t.Fatal(err)
		}
	}
	per := float64(sc.seg.Stats().Staged) / float64(len(ins))
	if per > budget {
		t.Fatalf("%.2f lookups staged γ per cold search, budget %.1f", per, budget)
	}
	t.Logf("%.2f lookups staged γ per cold search (budget %.1f)", per, budget)
}
