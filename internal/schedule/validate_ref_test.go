package schedule

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/task"
)

// validateRef is Validate as it stood before the pooled-scratch rewrite: a
// Processors() slice and a set per placement, one sorted interval list per
// processor. Kept as the differential reference.
func validateRef(in *instance.Instance, s *Schedule, requireContiguous bool) error {
	seen := make([]bool, in.N())
	type iv struct {
		start, end float64
		task       int
	}
	perProc := make([][]iv, in.M)
	for _, p := range s.Placements {
		if p.Task < 0 || p.Task >= in.N() {
			return fmt.Errorf("schedule: placement references task %d of %d", p.Task, in.N())
		}
		name := in.Tasks[p.Task].Name
		if seen[p.Task] {
			return fmt.Errorf("%w: %s", ErrDuplicateTask, name)
		}
		seen[p.Task] = true
		if p.Width < 1 || p.Width > in.Tasks[p.Task].MaxProcs() {
			return fmt.Errorf("%w: %s on %d procs (profile max %d)", ErrBadWidth, name, p.Width, in.Tasks[p.Task].MaxProcs())
		}
		if p.Start < -task.Eps || math.IsNaN(p.Start) || math.IsInf(p.Start, 0) {
			return fmt.Errorf("%w: %s at %v", ErrBadStart, name, p.Start)
		}
		if p.ProcSet != nil && len(p.ProcSet) != p.Width {
			return fmt.Errorf("%w: %s has %d procs listed for width %d", ErrWidthMismatch, name, len(p.ProcSet), p.Width)
		}
		if requireContiguous && !p.Contiguous() {
			return fmt.Errorf("%w: %s", ErrNotContiguous, name)
		}
		procs := p.Processors()
		used := make(map[int]bool, len(procs))
		for _, j := range procs {
			if j < 0 || j >= in.M {
				return fmt.Errorf("%w: %s on processor %d of %d", ErrBadProcessor, name, j, in.M)
			}
			if used[j] {
				return fmt.Errorf("%w: %s on processor %d", ErrRepeatProcessor, name, j)
			}
			used[j] = true
			perProc[j] = append(perProc[j], iv{p.Start, p.End(in), p.Task})
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("%w: %s", ErrMissingTask, in.Tasks[i].Name)
		}
	}
	for j, ivs := range perProc {
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].start < ivs[b].start })
		for k := 1; k < len(ivs); k++ {
			// Allow touching intervals up to the module tolerance.
			if !task.Leq(ivs[k-1].end, ivs[k].start) {
				return fmt.Errorf("%w: %s and %s on processor %d ([%g,%g] vs [%g,%g])",
					ErrOverlap, in.Tasks[ivs[k-1].task].Name, in.Tasks[ivs[k].task].Name, j,
					ivs[k-1].start, ivs[k-1].end, ivs[k].start, ivs[k].end)
			}
		}
	}
	return nil
}

// randomPlan greedily builds a valid plan: each task takes a random width on
// a random block (First) or a random set (ProcSet) of processors and starts
// when the last of them frees up.
func randomPlan(rng *rand.Rand, in *instance.Instance) *Schedule {
	free := make([]float64, in.M)
	s := &Schedule{Algorithm: "random", Placements: make([]Placement, 0, in.N())}
	for _, i := range rng.Perm(in.N()) {
		w := 1 + rng.Intn(in.Tasks[i].MaxProcs())
		p := Placement{Task: i, Width: w, First: rng.Intn(in.M - w + 1)}
		if rng.Intn(3) == 0 {
			p.First, p.ProcSet = -1, rng.Perm(in.M)[:w]
		}
		for _, j := range p.Processors() {
			p.Start = math.Max(p.Start, free[j])
		}
		for _, j := range p.Processors() {
			free[j] = p.End(in)
		}
		s.Placements = append(s.Placements, p)
	}
	return s
}

func clonePlan(s *Schedule) *Schedule {
	c := &Schedule{Algorithm: s.Algorithm, Placements: append([]Placement(nil), s.Placements...)}
	for i := range c.Placements {
		if ps := c.Placements[i].ProcSet; ps != nil {
			c.Placements[i].ProcSet = append([]int(nil), ps...)
		}
	}
	return c
}

// sharedProc returns two placement indices a, b with a ending no later than
// b starts on a processor both use, or ok=false when the plan has none.
func sharedProc(in *instance.Instance, s *Schedule) (a, b int, ok bool) {
	for a = range s.Placements {
		for b = range s.Placements {
			if a == b || s.Placements[a].End(in) > s.Placements[b].Start {
				continue
			}
			for _, j := range s.Placements[a].Processors() {
				for _, k := range s.Placements[b].Processors() {
					if j == k {
						return a, b, true
					}
				}
			}
		}
	}
	return 0, 0, false
}

var validateClasses = []error{
	ErrMissingTask, ErrDuplicateTask, ErrBadWidth, ErrBadProcessor, ErrBadStart,
	ErrOverlap, ErrNotContiguous, ErrWidthMismatch, ErrRepeatProcessor,
}

// TestValidateMatchesReference runs the pooled Validate and the reference on
// valid plans and on one corruption of each kind, and requires the same
// verdict and the same errors.Is class; each corruption must also be caught.
func TestValidateMatchesReference(t *testing.T) {
	corruptions := []struct {
		name string
		want error // nil: the plan stays valid
		// apply corrupts the plan in place; false means it does not apply.
		apply func(rng *rand.Rand, in *instance.Instance, s *Schedule) bool
	}{
		{"valid", nil, func(*rand.Rand, *instance.Instance, *Schedule) bool { return true }},
		{"duplicate", ErrDuplicateTask, func(_ *rand.Rand, _ *instance.Instance, s *Schedule) bool {
			s.Placements[len(s.Placements)-1].Task = s.Placements[0].Task
			return true
		}},
		{"missing", ErrMissingTask, func(_ *rand.Rand, _ *instance.Instance, s *Schedule) bool {
			s.Placements = s.Placements[:len(s.Placements)-1]
			return true
		}},
		{"zero width", ErrBadWidth, func(rng *rand.Rand, _ *instance.Instance, s *Schedule) bool {
			s.Placements[rng.Intn(len(s.Placements))].Width = 0
			return true
		}},
		{"width beyond profile", ErrBadWidth, func(rng *rand.Rand, in *instance.Instance, s *Schedule) bool {
			p := &s.Placements[rng.Intn(len(s.Placements))]
			p.Width, p.ProcSet = in.Tasks[p.Task].MaxProcs()+1, nil
			return true
		}},
		{"processor beyond machine", ErrBadProcessor, func(rng *rand.Rand, in *instance.Instance, s *Schedule) bool {
			p := &s.Placements[rng.Intn(len(s.Placements))]
			p.First, p.ProcSet = in.M-p.Width+1, nil
			return true
		}},
		{"negative processor", ErrBadProcessor, func(rng *rand.Rand, _ *instance.Instance, s *Schedule) bool {
			p := &s.Placements[rng.Intn(len(s.Placements))]
			p.First, p.ProcSet = -1, nil
			return true
		}},
		{"repeated processor", ErrRepeatProcessor, func(_ *rand.Rand, in *instance.Instance, s *Schedule) bool {
			for i := range s.Placements {
				if p := &s.Placements[i]; p.Width >= 2 {
					p.ProcSet = append([]int(nil), p.Processors()...)
					p.ProcSet[p.Width-1] = p.ProcSet[0]
					p.First = -1
					return true
				}
			}
			return false
		}},
		{"width mismatch", ErrWidthMismatch, func(rng *rand.Rand, _ *instance.Instance, s *Schedule) bool {
			p := &s.Placements[rng.Intn(len(s.Placements))]
			p.ProcSet = append(p.Processors(), 0)
			return true
		}},
		{"bad start", ErrBadStart, func(rng *rand.Rand, _ *instance.Instance, s *Schedule) bool {
			s.Placements[rng.Intn(len(s.Placements))].Start = []float64{-1, math.NaN(), math.Inf(1)}[rng.Intn(3)]
			return true
		}},
		{"overlap", ErrOverlap, func(_ *rand.Rand, in *instance.Instance, s *Schedule) bool {
			a, b, ok := sharedProc(in, s)
			if ok {
				// b now starts in the middle of a.
				pa := s.Placements[a]
				s.Placements[b].Start = (pa.Start + pa.End(in)) / 2
			}
			return ok
		}},
		{"touching within Eps", nil, func(_ *rand.Rand, in *instance.Instance, s *Schedule) bool {
			a, b, ok := sharedProc(in, s)
			if ok {
				// b starts a hair before a ends: inside the module tolerance.
				end := s.Placements[a].End(in)
				s.Placements[b].Start = end - task.Eps*end/4
			}
			return ok
		}},
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := instance.Mixed(seed, 4+rng.Intn(21), 2+rng.Intn(15))
		base := randomPlan(rng, in)
		for _, c := range corruptions {
			s := clonePlan(base)
			if !c.apply(rng, in, s) {
				continue
			}
			for _, contiguous := range []bool{false, true} {
				got, ref := Validate(in, s, contiguous), validateRef(in, s, contiguous)
				if (got == nil) != (ref == nil) {
					t.Fatalf("seed %d %s contiguous=%v: Validate = %v, reference = %v", seed, c.name, contiguous, got, ref)
				}
				for _, class := range validateClasses {
					if errors.Is(got, class) != errors.Is(ref, class) {
						t.Fatalf("seed %d %s contiguous=%v: Validate = %v, reference = %v", seed, c.name, contiguous, got, ref)
					}
				}
				// With contiguity required a random-set placement may fail
				// first with ErrNotContiguous; the class match above covers it.
				if !contiguous && !errors.Is(got, c.want) {
					t.Fatalf("seed %d %s: Validate = %v, want %v", seed, c.name, got, c.want)
				}
			}
		}
	}
}

// TestValidateConcurrent shares the scratch pool between goroutines that
// validate plans of different shapes, valid and overlapping alike; under
// -race it is the tripwire for a scratch handed to two callers at once.
func TestValidateConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := int64(1); g <= 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(g))
			for i := 0; i < 50; i++ {
				in := instance.Mixed(g*100+int64(i), 4+rng.Intn(21), 2+rng.Intn(15))
				s := randomPlan(rng, in)
				if i%2 == 1 {
					if a, b, ok := sharedProc(in, s); ok {
						s.Placements[b].Start = s.Placements[a].Start
					}
				}
				got, ref := Validate(in, s, false), validateRef(in, s, false)
				if (got == nil) != (ref == nil) || errors.Is(got, ErrOverlap) != errors.Is(ref, ErrOverlap) {
					t.Errorf("goroutine %d plan %d: Validate = %v, reference = %v", g, i, got, ref)
					return
				}
			}
		}()
	}
	wg.Wait()
}
