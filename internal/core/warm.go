package core

import (
	"malsched/internal/instance"
	"malsched/internal/task"
)

// WarmStart seeds an incremental re-solve from the outcome of a previous
// search on a related instance (typically the previous residual of the same
// replanning lineage). Approximate treats every field as advisory: the warm
// search replays the exact probe sequence of a cold solve, resolving the
// outcomes the compiled segment tables decide without running the dual
// step (synthesis). A stale, wrong or garbage seed can therefore never
// change the result — the warm-vs-cold equivalence and FuzzWarmStart
// suites enforce bit-identity.
//
// On success Approximate updates the WarmStart in place with this search's
// own outcome (λ* and floor), so a caller replanning in a loop threads
// one WarmStart value through consecutive solves.
type WarmStart struct {
	// AcceptedLambda is the prior run's smallest accepted guess (its λ*);
	// 0 means unknown.
	AcceptedLambda float64
	// Floor is the prior run's largest rejected guess.
	Floor float64
}

// update writes the finished search's outcome back into the seed.
func (s *search) updateWarm() {
	if s.warm == nil {
		return
	}
	s.warm.AcceptedLambda = s.res.AcceptedLambda
	s.warm.Floor = s.lo
}

// synthesize resolves a deadline guess without running the dual step, when
// its outcome is decided by the compiled segment tables alone. It mirrors
// dualStep's two pre-construction exits exactly — the canonical-allotment
// existence test (RejectTooSlow) and the Property-2 area test (RejectArea),
// both certified — computed through the same λ-segment cache a real probe
// would fill, so the returned StepResult is bit-identical to what the
// prober would have returned and the search path is unchanged. Guesses that
// survive both tests need the constructions and are probed for real.
//
// Synthesis requires the default prober (an instrumented prober's outcomes
// must keep deciding the search alone).
func (s *search) synthesize(lambda float64, sc *Scratch) (StepResult, bool) {
	if !s.synthOK {
		return StepResult{}, false
	}
	e := filled(&sc.seg, s.c, lambda)
	if !e.OK {
		return StepResult{Reject: RejectTooSlow, Certified: true}, true
	}
	if !task.Leq(e.Work, float64(s.in.M)*lambda) {
		return StepResult{Reject: RejectArea, Certified: true}, true
	}
	return StepResult{}, false
}

// DropCompiled evicts every entry derived from c from the Scratch's λ-range
// index and its aux cache: a lineage moving to its next residual retires
// the old tables here rather than in the wholesale clear at the cap, which
// would evict live entries too.
func (sc *Scratch) DropCompiled(c *instance.Compiled) {
	sc.seg.Drop(c)
	if sc.aux != nil {
		sc.aux.DropCompiled(c)
	}
}
