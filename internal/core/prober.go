package core

import "malsched/internal/instance"

// Prober evaluates one deadline guess of the dichotomic search. It is the
// seam between the search driver and the paper's dual step: every guess
// Approximate makes flows through exactly one Probe call, so tests can
// instrument the guess sequence and alternative dual steps can be swapped
// in without touching the driver.
//
// A Prober must be deterministic in (in, c, lambda, p). The compiled tables
// c are immutable.
type Prober interface {
	// Probe evaluates the guess λ on the instance: either a schedule of
	// makespan ≤ ρλ, with that makespan in StepResult.Makespan (the search
	// ranks accepted probes by it), or a rejection. The schedule must not
	// alias sc: the search keeps it past later probes on the same Scratch. c carries the
	// instance's compiled λ-breakpoint tables (Approximate never passes
	// nil); working memory comes from sc; a non-nil interrupt aborts
	// mid-probe with StepResult{Interrupted: true}.
	Probe(in *instance.Instance, c *instance.Compiled, lambda float64, p Params, sc *Scratch, interrupt <-chan struct{}) StepResult
}

// DualProber is the default Prober: the paper's dual √3-approximation step
// on scratch memory.
type DualProber struct{}

// Probe implements Prober with dualStep, copying an accepted schedule out
// of sc: the result is the caller's. A direct caller without tables passes
// nil: the probe then compiles in itself and drops the private tables from
// sc's segment caches before returning.
func (DualProber) Probe(in *instance.Instance, c *instance.Compiled, lambda float64, p Params, sc *Scratch, interrupt <-chan struct{}) StepResult {
	if c == nil {
		c = instance.Compile(in)
		defer sc.DropCompiled(c)
	}
	r := dualStep(c, lambda, p, sc, interrupt)
	r.Schedule = owned(r.Schedule)
	return r
}
