package task

import (
	"fmt"
	"math"
)

// Profile constructors for the speedup families used across the paper's
// discussion and our experiments. Every constructor produces a task that is
// monotone by construction (validated in tests, not at run time — the
// formulas guarantee it).

// Sequential builds a task that gains nothing from parallelism:
// t(p) = work for all p. Time is constant (non-increasing) and work p·work
// is increasing, so the profile is monotone; schedulers will always allot it
// one processor.
func Sequential(name string, work float64, m int) Task {
	times := make([]float64, m)
	for p := range times {
		times[p] = work
	}
	return Task{Name: name, times: times}
}

// Linear builds a perfectly parallel task: t(p) = work/p. Work is constant,
// the extreme allowed by the monotone hypothesis.
func Linear(name string, work float64, m int) Task {
	times := make([]float64, m)
	for p := range times {
		times[p] = work / float64(p+1)
	}
	return Task{Name: name, times: times}
}

// Amdahl builds a task following Amdahl's law with serial fraction
// f ∈ [0,1]: t(p) = work·(f + (1−f)/p). Time decreases with p and work
// work·(p·f + 1−f) increases, so the profile is monotone.
func Amdahl(name string, work, serialFrac float64, m int) Task {
	if serialFrac < 0 || serialFrac > 1 {
		panic(fmt.Sprintf("task: Amdahl serial fraction %g outside [0,1]", serialFrac))
	}
	times := make([]float64, m)
	for p := range times {
		times[p] = work * (serialFrac + (1-serialFrac)/float64(p+1))
	}
	return Task{Name: name, times: times}
}

// PowerLaw builds the Prasanna–Musicus speedup family t(p) = work/p^alpha
// with alpha ∈ (0,1]. Work work·p^(1−alpha) is non-decreasing and time is
// decreasing, so the profile is monotone. alpha = 1 is Linear.
func PowerLaw(name string, work, alpha float64, m int) Task {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("task: PowerLaw alpha %g outside (0,1]", alpha))
	}
	times := make([]float64, m)
	for p := range times {
		times[p] = work / math.Pow(float64(p+1), alpha)
	}
	return Task{Name: name, times: times}
}

// CommOverhead builds a communication-overhead profile
// t(p) = work/p + c·(p−1), the standard model of parallel-management cost
// the paper's introduction motivates. The raw formula loses monotony beyond
// p ≈ sqrt(work/c); the profile is repaired with Monotonize, which is
// exactly "stop using extra processors once they hurt".
func CommOverhead(name string, work, c float64, m int) Task {
	times := make([]float64, m)
	for p := range times {
		times[p] = work/float64(p+1) + c*float64(p)
	}
	return Task{Name: name, times: Monotonize(times)}
}

// Rigid builds a task that requires at least req processors to be efficient:
// below req it degrades as t = work·req/p (p processors emulate the req-way
// run slower); at and beyond req the time stays work (no further speedup).
// This models moldable jobs with a preferred width. Monotone by
// construction via Monotonize.
func Rigid(name string, work float64, req, m int) Task {
	if req < 1 {
		panic(fmt.Sprintf("task: Rigid req %d < 1", req))
	}
	times := make([]float64, m)
	for p := range times {
		if p+1 <= req {
			times[p] = work * float64(req) / float64(p+1)
		} else {
			times[p] = work
		}
	}
	return Task{Name: name, times: Monotonize(times)}
}

// NonMonotone builds a deliberately non-monotone profile exhibiting a
// super-linear speedup dip at processor count dip (cache-effect anomaly,
// per Graham's anomalies discussion in §2.1). It bypasses validation — the
// returned task violates the monotone hypothesis by design and is used only
// by the E9 ablation experiment. factor < 1 deepens the dip.
func NonMonotone(name string, work float64, dip int, factor float64, m int) Task {
	times := make([]float64, m)
	for p := range times {
		times[p] = work / float64(p+1)
	}
	if dip >= 1 && dip <= m {
		times[dip-1] *= factor
	}
	return Task{Name: name, times: times}
}

// IsMonotone reports whether the task's profile satisfies both halves of the
// monotone hypothesis under the module tolerance.
func (t Task) IsMonotone() bool {
	for p := 1; p < len(t.times); p++ {
		if t.times[p] > t.times[p-1]*(1+Eps) {
			return false
		}
		if float64(p+1)*t.times[p] < float64(p)*t.times[p-1]*(1-Eps) {
			return false
		}
	}
	return true
}
