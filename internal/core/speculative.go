package core

import (
	"fmt"
	"sync"
)

// specScratch pools the Scratch buffers of the speculative workers: a
// search at Parallelism k needs k−1 buffers beyond the caller's, for the
// duration of the search only. Pooling them package-wide means a process
// running many searches (the engine's workers all may speculate) reuses the
// same buffers instead of growing fresh DP tables per search.
var specScratch = sync.Pool{New: func() any { return NewScratch() }}

// specScratches returns the k probe buffers of a speculative search — the
// caller's plus k−1 pooled ones — and the function handing the pooled ones
// back. Tables the search compiled privately are dropped from them first,
// for the reason Approximate drops them from the caller's Scratch.
func (s *search) specScratches(k int, sc *Scratch) ([]*Scratch, func()) {
	scratches := make([]*Scratch, k)
	scratches[0] = sc
	for i := 1; i < k; i++ {
		scratches[i] = specScratch.Get().(*Scratch)
	}
	return scratches, func() {
		for _, w := range scratches[1:] {
			if s.privateTables {
				w.DropCompiled(s.c)
			}
			specScratch.Put(w)
		}
	}
}

// specNode is one node of the bisection decision tree: probing lam splits
// the current interval, and the child consumed next depends on the outcome
// (accept → left half, reject → right half). Children are materialised lazily
// up to the round's speculation budget; a node missing from the round's
// result map is the frontier where consumption stops.
type specNode struct {
	lam            float64
	accept, reject *specNode
}

// runSpeculative drives the dichotomic search with up to k concurrent
// probes. The determinism argument: the sequential driver's guess sequence
// is a deterministic function of the probe outcomes, so both upcoming
// phases are predictable — the doubling guesses are the fixed sequence
// lb·2^i, and the bisection guesses form a binary decision tree over the
// current interval. Each round executes the next k predictable guesses
// concurrently (one pooled Scratch per probe), then consumes the outcomes
// strictly along the path the sequential driver would take, discarding
// every off-path outcome unseen. Consumed outcomes are merged in sequential
// order by merge, and the prober is deterministic in λ, so the result —
// schedule, makespan, lower bound, accepted λ, branch — is bit-identical to
// runSequential's; only Probes/Speculated differ, reporting the discarded
// work.
func (s *search) runSpeculative(k int, sc *Scratch) error {
	if k > maxDoubling {
		k = maxDoubling
	}
	scratches, release := s.specScratches(k, sc)
	defer release()

	// probe evaluates up to k guesses concurrently; results[i] belongs to
	// lambdas[i]. Every execution counts toward Probes, consumed or not.
	probe := func(lambdas []float64) []StepResult {
		s.res.Probes += len(lambdas)
		results := make([]StepResult, len(lambdas))
		if len(lambdas) == 1 {
			results[0] = s.prober.Probe(s.in, s.c, lambdas[0], s.p, scratches[0], s.interrupt)
			return results
		}
		var wg sync.WaitGroup
		wg.Add(len(lambdas))
		for i := range lambdas {
			go func(i int) {
				defer wg.Done()
				results[i] = s.prober.Probe(s.in, s.c, lambdas[i], s.p, scratches[i], s.interrupt)
			}(i)
		}
		wg.Wait()
		return results
	}

	// Doubling phase: speculate along the fixed sequence hi·2^j.
	hi := s.lo
	accepted := false
	for iters := 0; !accepted && iters < maxDoubling; {
		if s.interrupted() {
			return s.errInterrupted()
		}
		n := k
		if n > maxDoubling-iters {
			n = maxDoubling - iters
		}
		lambdas := make([]float64, n)
		l := hi
		for j := range lambdas {
			lambdas[j] = l
			l *= 2
		}
		results := probe(lambdas)
		for j, r := range results {
			iters++
			if r.Interrupted {
				return s.errInterrupted()
			}
			s.merge(lambdas[j], r, false)
			if r.Schedule != nil {
				accepted = true
				hi = lambdas[j]
				break
			}
			s.lo = lambdas[j]
			hi = lambdas[j] * 2
		}
	}
	if !accepted {
		return fmt.Errorf("%w (instance %q)", ErrNoSchedule, s.in.Name)
	}
	s.hi = hi
	s.res.AcceptedLambda = hi

	// Bisection phase: speculate over the next k nodes of the decision
	// tree, breadth-first (near-term guesses first), then walk the
	// outcome path.
	for !s.converged() {
		if s.interrupted() {
			return s.errInterrupted()
		}
		type frame struct {
			nd     *specNode
			lo, hi float64
		}
		root := &specNode{}
		queue := []frame{{root, s.lo, s.hi}}
		var nodes []*specNode
		var lambdas []float64
		for len(queue) > 0 && len(nodes) < k {
			f := queue[0]
			queue = queue[1:]
			if !(f.hi > f.lo*(1+s.eps)) {
				continue // this branch of the tree has already converged
			}
			mid := (f.lo + f.hi) / 2
			if mid <= f.lo || mid >= f.hi {
				continue // interval at float resolution; cannot shrink
			}
			f.nd.lam = mid
			f.nd.accept = &specNode{}
			f.nd.reject = &specNode{}
			nodes = append(nodes, f.nd)
			lambdas = append(lambdas, mid)
			queue = append(queue, frame{f.nd.accept, f.lo, mid}, frame{f.nd.reject, mid, f.hi})
		}
		if len(nodes) == 0 {
			break // no guess can shrink the interval further
		}
		results := make(map[*specNode]StepResult, len(nodes))
		for i, r := range probe(lambdas) {
			results[nodes[i]] = r
		}
		for nd := root; nd != nil && !s.converged(); {
			r, ok := results[nd]
			if !ok {
				break // frontier: beyond this round's speculation budget
			}
			if r.Interrupted {
				return s.errInterrupted()
			}
			s.merge(nd.lam, r, false)
			if r.Schedule != nil {
				s.hi = nd.lam
				s.res.AcceptedLambda = nd.lam
				nd = nd.accept
			} else {
				s.lo = nd.lam
				nd = nd.reject
			}
		}
	}
	return nil
}
