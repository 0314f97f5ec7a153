package schedule

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/task"
)

// FuzzValidateMatchesReference holds Validate's start-order sweep to the
// per-processor sort of validateRef: the same verdict and the same
// errors.Is class on every plan. The bytes are an instance (a Mixed seed,
// n, and m with the contiguity flag in the low bit), then edits of three
// bytes each — an operation and two placement indices — applied to a
// random valid plan: shuffle the placement order, sort it by start, copy
// one start onto another (an exact tie), move a start into the middle of
// another placement, start one placement a hair before another ends
// (touching within Eps), or switch a placement between First and ProcSet.
// The committed seeds (testdata/fuzz/FuzzValidateMatchesReference) cover
// a sorted and an unsorted order, an exact tie, touching within Eps, and a
// mix of First and ProcSet placements.
func FuzzValidateMatchesReference(f *testing.F) {
	f.Add([]byte{1, 12, 8, 1, 0, 0})
	f.Add([]byte{7, 20, 20, 0, 3, 9, 2, 1, 4, 3, 5, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		if len(data) > 3+3*16 {
			data = data[:3+3*16]
		}
		n, m := 4+int(data[1])%21, 2+int(data[2]>>1)%15
		contiguous := data[2]&1 != 0
		in := instance.Mixed(int64(data[0]), n, m)
		rng := rand.New(rand.NewSource(int64(data[0])<<16 | int64(data[1])<<8 | int64(data[2])))
		s := randomPlan(rng, in)
		pl := s.Placements
		for edit := data[3:]; len(edit) >= 3; edit = edit[3:] {
			a, b := &pl[int(edit[1])%len(pl)], &pl[int(edit[2])%len(pl)]
			switch edit[0] % 6 {
			case 0:
				r := rand.New(rand.NewSource(int64(edit[1])<<8 | int64(edit[2])))
				r.Shuffle(len(pl), func(i, j int) { pl[i], pl[j] = pl[j], pl[i] })
			case 1:
				slices.SortStableFunc(pl, func(x, y Placement) int { return cmp.Compare(x.Start, y.Start) })
			case 2:
				b.Start = a.Start
			case 3:
				b.Start = (a.Start + a.End(in)) / 2
			case 4:
				end := a.End(in)
				b.Start = end - task.Eps*end/4
			case 5:
				if a.ProcSet != nil {
					a.First, a.ProcSet = min(slices.Min(a.ProcSet), in.M-a.Width), nil
				} else {
					procs := a.Processors()
					k := int(edit[2]) % len(procs)
					a.First, a.ProcSet = -1, append(procs[k:], procs[:k]...)
				}
			}
		}
		got, ref := Validate(in, s, contiguous), validateRef(in, s, contiguous)
		if (got == nil) != (ref == nil) {
			t.Fatalf("contiguous=%v: Validate = %v, reference = %v", contiguous, got, ref)
		}
		for _, class := range validateClasses {
			if errors.Is(got, class) != errors.Is(ref, class) {
				t.Fatalf("contiguous=%v: Validate = %v, reference = %v", contiguous, got, ref)
			}
		}
	})
}
