package core

import (
	"testing"

	"malsched/internal/instance"
)

// BenchmarkApproximateCold is the cold search alone: distinct 24×16 mixed
// instances (the benchmark's serve-cold shape) solved in turn on one
// Scratch with the tables supplied, so every search meets its allotments
// for the first time and the segment caches recycle as they do under cold
// traffic. docs/BENCHMARKS.md's section "The cold dual step" reads it.
func BenchmarkApproximateCold(b *testing.B) {
	const pool = 2048
	ins := make([]*instance.Instance, pool)
	cs := make([]*instance.Compiled, pool)
	for i := range ins {
		ins[i] = instance.Mixed(int64(i), 24, 16)
		cs[i] = instance.Compile(ins[i])
	}
	sc := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % pool
		if _, err := Approximate(ins[k], Options{Compiled: cs[k], Scratch: sc}); err != nil {
			b.Fatal(err)
		}
	}
}
