package core

import "malsched/internal/instance"

// dualStepOnce runs one dual step on privately compiled tables and a pooled
// Scratch, copying an accepted schedule out so it outlives the Scratch.
func dualStepOnce(in *instance.Instance, lambda float64, p Params) StepResult {
	return oneShot(in, func(c *instance.Compiled, sc *Scratch) StepResult {
		r := dualStep(c, lambda, p, sc, nil)
		r.Schedule = owned(r.Schedule)
		return r
	})
}

// byDecreasingTime returns the task indices sorted by non-increasing
// canonical execution time t_i(γ_i) (stable).
func byDecreasingTime(a Allotment, in *instance.Instance) []int {
	var order []int
	var keys []float64
	return sortByDecreasingTime(instance.Compile(in), a, &order, &keys)
}
