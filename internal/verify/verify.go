// Package verify is the canonical invariant checker for certified
// schedules: one Plan function that every trust boundary in the module runs
// before letting a schedule out — the solvers' self-validation
// (internal/solver), the scheduling service on every response
// (internal/server), and the fuzz/differential test layer.
//
// Plan checks the full claim a scheduler makes, not just the plan shape:
// the placements themselves (every task exactly once, allotments within
// profile bounds, no processor over-subscribed in any shelf or elsewhere —
// via schedule.Validate), the monotony of the chosen times (the profile
// prefix the plan relies on must satisfy Brent's lemma), and the
// certificates (the reported makespan matches the plan's, the certified
// lower bound is positive, finite and does not exceed the makespan it
// supposedly bounds).
package verify

import (
	"errors"
	"fmt"
	"math"

	"malsched/internal/instance"
	"malsched/internal/schedule"
	"malsched/internal/task"
)

// Certified bundles a plan with the certificates its producer claims for
// it: the certificate fields of solver.Solution (which engine.Solution and
// malsched.Result alias), so a solution converts field by field. verify
// sits below the solver layer and cannot import its type.
type Certified struct {
	// Plan is the schedule under scrutiny.
	Plan *schedule.Schedule
	// Makespan is the makespan the producer reports for Plan.
	Makespan float64
	// LowerBound is the certified lower bound on the optimal makespan the
	// producer reports.
	LowerBound float64
}

// Verification errors beyond those of schedule.Validate (which Plan wraps
// unchanged).
var (
	// ErrNilInstance reports a nil instance.
	ErrNilInstance = errors.New("verify: nil instance")
	// ErrNilPlan reports a certified result without a plan.
	ErrNilPlan = errors.New("verify: nil plan")
	// ErrMakespanMismatch reports a reported makespan that differs from
	// the plan's recomputed one.
	ErrMakespanMismatch = errors.New("verify: reported makespan differs from the plan's")
	// ErrBadMakespan reports a non-finite or negative reported makespan.
	ErrBadMakespan = errors.New("verify: reported makespan is not positive and finite")
	// ErrBadLowerBound reports a certified lower bound that is not
	// positive and finite.
	ErrBadLowerBound = errors.New("verify: certified lower bound is not positive and finite")
	// ErrBoundAboveMakespan reports a certified lower bound exceeding the
	// achieved makespan — impossible for a true bound, so the certificate
	// is wrong.
	ErrBoundAboveMakespan = errors.New("verify: certified lower bound exceeds the makespan")
	// ErrNonMonotone reports a chosen allotment whose profile prefix
	// violates the monotone hypothesis.
	ErrNonMonotone = errors.New("verify: profile prefix at the chosen allotment is not monotone")
)

// Plan checks a certified schedule against its instance and returns nil
// only when every invariant holds:
//
//  1. every task is placed exactly once, within its profile's allotment
//     bounds, on in-machine processors, with no processor over-subscribed
//     at any time (schedule.Validate; requireContiguous additionally
//     enforces the paper's contiguous-block convention);
//  2. the chosen times are monotone: up to each placement's width, the
//     task's profile has non-increasing times and non-decreasing work;
//  3. the reported makespan is positive, finite and matches the plan's
//     recomputed makespan up to the module tolerance;
//  4. the certified lower bound is positive, finite and at most the
//     makespan (a "lower bound" above the achieved makespan cannot bound
//     the optimum).
//
// The check is O(total placed width + n·m) and allocation-light, cheap
// enough to run on every service response.
func Plan(in *instance.Instance, c Certified, requireContiguous bool) error {
	if in == nil {
		return ErrNilInstance
	}
	if c.Plan == nil {
		return ErrNilPlan
	}
	if err := schedule.Validate(in, c.Plan, requireContiguous); err != nil {
		return err
	}
	for _, p := range c.Plan.Placements {
		t := in.Tasks[p.Task]
		if err := monotonePrefix(t.Name, t.Time, p.Width); err != nil {
			return err
		}
	}
	if !(c.Makespan >= 0) || math.IsInf(c.Makespan, 0) {
		return fmt.Errorf("%w: %v", ErrBadMakespan, c.Makespan)
	}
	if got := c.Plan.Makespan(in); !task.Leq(got, c.Makespan) || !task.Leq(c.Makespan, got) {
		return fmt.Errorf("%w: reported %v, plan achieves %v", ErrMakespanMismatch, c.Makespan, got)
	}
	if !(c.LowerBound > 0) || math.IsInf(c.LowerBound, 0) {
		return fmt.Errorf("%w: %v", ErrBadLowerBound, c.LowerBound)
	}
	if !task.Leq(c.LowerBound, c.Makespan) {
		return fmt.Errorf("%w: bound %v, makespan %v", ErrBoundAboveMakespan, c.LowerBound, c.Makespan)
	}
	return nil
}

// monotonePrefix checks Brent's lemma on the profile prefix a placement of
// the given width relies on: timeAt non-increasing and p·timeAt(p)
// non-decreasing for p = 1..width, up to the module tolerance. It takes the
// accessor rather than a task so the defense-in-depth path (profiles
// corrupted after construction) stays testable.
func monotonePrefix(name string, timeAt func(int) float64, width int) error {
	for p := 2; p <= width; p++ {
		cur, prev := timeAt(p), timeAt(p-1)
		if cur > prev*(1+task.Eps) {
			return fmt.Errorf("%w: task %q t(%d)=%g > t(%d)=%g", ErrNonMonotone, name, p, cur, p-1, prev)
		}
		if float64(p)*cur < float64(p-1)*prev*(1-task.Eps) {
			return fmt.Errorf("%w: task %q w(%d)=%g < w(%d)=%g", ErrNonMonotone, name, p, float64(p)*cur, p-1, float64(p-1)*prev)
		}
	}
	return nil
}
