package core

import (
	"math"
	"sort"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/lowerbound"
)

// familyNames lists the generator families in a fixed order, so a fuzzed
// index names the same family in every run.
func familyNames() []string {
	names := make([]string, 0)
	for name := range instance.Families() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FuzzWarmStart throws adversarial warm seeds at the dual search and holds
// it to the warm-start contract: whatever the seed claims — a stale λ*
// from a different instance, a floor above it, NaN/Inf/negative floats —
// the warm solve must return a result bit-identical to the cold solve of
// the same instance, and so must a solve from the updated seed and one from
// that seed corrupted again. Garbage seeds may cost probes; they can never
// change an answer (synthesis only certifies outcomes the compiled tables
// prove).
func FuzzWarmStart(f *testing.F) {
	// Committed seeds (testdata/fuzz/FuzzWarmStart) cover the named attack
	// classes; these inline ones keep `go test` meaningful without the
	// corpus.
	f.Add(uint8(0), 0.0, 0.0, 0.0, uint64(0))
	f.Add(uint8(1), 123.456, 1e-9, 7.5, uint64(0xA5))
	f.Add(uint8(2), math.Inf(1), math.Inf(-1), math.NaN(), uint64(0xFF))

	names := familyNames()
	type compiledCase struct {
		in *instance.Instance
		c  *instance.Compiled
	}
	cases := make([]compiledCase, len(names))
	for i, name := range names {
		in := instance.Families()[name](3, 12, 8)
		cases[i] = compiledCase{in: in, c: instance.Compile(in)}
	}

	// stale and bits corrupt the updated seed before the third solve; every
	// committed corpus entry carries all five values.
	f.Fuzz(func(t *testing.T, famIdx uint8, lam, floor, stale float64, bits uint64) {
		cc := cases[int(famIdx)%len(cases)]

		cold, err := Approximate(cc.in, Options{Compiled: cc.c})
		if err != nil {
			t.Fatalf("cold solve failed: %v", err)
		}

		warmSeed := &WarmStart{AcceptedLambda: lam, Floor: floor}
		warm, err := Approximate(cc.in, Options{Compiled: cc.c, WarmStart: warmSeed})
		if err != nil {
			t.Fatalf("warm solve failed: %v", err)
		}
		assertWarmColdIdentical(t, "fuzz", warm, cold)

		// The seed must come out usable: a second warm solve from the
		// updated state has to stay bit-identical too (the in-place update
		// is the lineage handoff, so a corrupted update would poison every
		// later replan).
		again, err := Approximate(cc.in, Options{Compiled: cc.c, WarmStart: warmSeed})
		if err != nil {
			t.Fatalf("re-warmed solve failed: %v", err)
		}
		assertWarmColdIdentical(t, "fuzz-rewarm", again, cold)

		// A handoff corrupted between two solves is just another seed.
		if bits&1 != 0 {
			warmSeed.AcceptedLambda = stale
		}
		if bits&2 != 0 {
			warmSeed.Floor = stale * (1 + float64(bits>>2&7)/4)
		}
		corrupted, err := Approximate(cc.in, Options{Compiled: cc.c, WarmStart: warmSeed})
		if err != nil {
			t.Fatalf("solve from a corrupted handoff failed: %v", err)
		}
		assertWarmColdIdentical(t, "fuzz-corrupted", corrupted, cold)
	})
}

// FuzzProbeSequenceMatchesFresh drives one Scratch through an arbitrary
// probe sequence over two instances and holds every outcome to the
// fresh-scratch one. The bytes are a family, a seed, then one operation
// each: the top bit picks the instance, the rest a guess between 0.5× and
// 3.1× its trivial bound — so allotments repeat, alternate and straddle the
// reject/accept boundary in any order — or, at 0x7f, a DropCompiled of that
// instance's tables, which recycles whatever entries the Scratch's
// list-draft tags point at. The drafts a Scratch keeps between probes must
// never show.
func FuzzProbeSequenceMatchesFresh(f *testing.F) {
	// Committed seeds (testdata/fuzz/FuzzProbeSequenceMatchesFresh) name
	// the hazards; these inline ones keep `go test` meaningful without the
	// corpus.
	f.Add([]byte{0, 1, 60, 60, 50, 60, 40, 40})
	f.Add([]byte{3, 9, 70, 0x7f, 198, 70, 0xff, 70, 198})

	names := familyNames()
	p := DefaultParams()

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		if len(data) > 66 {
			data = data[:66]
		}
		gen := instance.Families()[names[int(data[0])%len(names)]]
		seed := int64(data[1])
		n, m := 24, 16
		if seed%2 == 1 {
			n, m = 12, 4
		}
		var ins [2]*instance.Instance
		var cs [2]*instance.Compiled
		var lbs [2]float64
		for k := range ins {
			ins[k] = gen(seed+int64(k), n, m)
			cs[k] = instance.Compile(ins[k])
			lbs[k] = lowerbound.Trivial(ins[k])
		}
		sc := NewScratch()
		for step, b := range data[2:] {
			k, low := int(b>>7), b&0x7f
			if low == 0x7f {
				sc.DropCompiled(cs[k])
				continue
			}
			lambda := lbs[k] * (0.5 + float64(low)/48)
			got := DualProber{}.Probe(ins[k], cs[k], lambda, p, sc, nil)
			want := freshProber{}.Probe(ins[k], cs[k], lambda, p, nil, nil)
			if !sameStep(got, want) {
				t.Fatalf("step %d, instance %d, λ=%v: shared scratch %+v, fresh scratch %+v", step, k, lambda, got, want)
			}
		}
	})
}
