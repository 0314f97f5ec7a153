package core

import (
	"fmt"
	"sync"

	"malsched/internal/instance"
	"malsched/internal/task"
)

// WarmProbe records one consumed probe outcome of a finished search, in
// consumption order. The history is the seed of the next warm search on a
// nearby instance: it tells the speculative driver which side of each guess
// the previous run landed on.
type WarmProbe struct {
	// Lambda is the probed deadline guess.
	Lambda float64
	// Accepted reports whether the dual step produced a schedule at Lambda.
	Accepted bool
}

// WarmStart seeds an incremental re-solve from the outcome of a previous
// search on a related instance (typically the previous residual of the same
// replanning lineage). Approximate treats every field as advisory: the warm
// search replays the exact probe sequence of a cold solve and the seed only
// decides which outcomes can be resolved from the compiled segment tables
// without running the dual step (synthesis) and where the speculative
// budget is spent (prediction). A stale, wrong or garbage seed can
// therefore cost extra probes but can never change the result — the
// warm-vs-cold equivalence and FuzzWarmStart suites enforce bit-identity.
//
// On success Approximate updates the WarmStart in place with this search's
// own outcome (λ*, floor, history), so a caller replanning in a loop threads
// one WarmStart value through consecutive solves.
type WarmStart struct {
	// AcceptedLambda is the prior run's smallest accepted guess (its λ*);
	// 0 means unknown.
	AcceptedLambda float64
	// Floor is the prior run's largest rejected guess.
	Floor float64
	// History is the prior run's consumed probe outcomes in consumption
	// order.
	History []WarmProbe
}

// update writes the finished search's outcome back into the seed.
func (s *search) updateWarm() {
	if s.warm == nil {
		return
	}
	s.warm.AcceptedLambda = s.res.AcceptedLambda
	s.warm.Floor = s.lo
	s.warm.History = s.hist
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

// predictAccept guesses the outcome of probing lambda from the warm seed:
// accept iff lambda is at or above the smallest guess the prior run
// accepted. The prediction only steers which child of a bisection node the
// speculative budget expands; a mispredict wastes speculation, never
// correctness. Garbage seeds (NaN, negative, zero) lose every comparison
// and fall back to predicting the reject side, which is the cold driver's
// first-expanded child.
func (s *search) predictAccept(lambda float64) bool {
	w := s.warm
	if w == nil {
		return false
	}
	accLo := w.AcceptedLambda
	for _, h := range w.History {
		if h.Accepted && (!(accLo > 0) || h.Lambda < accLo) {
			accLo = h.Lambda
		}
	}
	return accLo > 0 && lambda >= accLo
}

// specOutcome is one resolved bisection-tree node of the warm speculative
// driver: a real probe result or a synthesized certified reject.
type specOutcome struct {
	r     StepResult
	synth bool
}

// runSpeculativeWarm is the warm-seeded variant of runSpeculative. Same
// output contract — outcomes are consumed strictly in the sequential probe
// order, off-path outcomes are discarded unseen — with two changes to how
// the work is scheduled:
//
//   - guesses whose outcome synthesize can decide from the segment tables
//     are resolved inline and consume no probe slot (they are certified
//     rejects, so in the bisection tree only their reject child can be on
//     the path and only it is expanded);
//   - for guesses that need a real probe, only the child predicted from the
//     warm seed is expanded, so the concurrent budget lines up along the
//     path the previous run suggests instead of breadth-first over both
//     halves.
//
// A wrong prediction stops the consumption walk at the frontier and the
// next round re-expands from the shrunken interval — the path itself is
// always decided by real (or synthesized-exact) outcomes, never by the
// seed.
func (s *search) runSpeculativeWarm(k int, sc *Scratch) error {
	if k > maxDoubling {
		k = maxDoubling
	}
	scratches, release := s.specScratches(k, sc)
	defer release()

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

	// Doubling phase: walk the fixed guess sequence hi·2^j, synthesizing
	// the certified rejects inline; only the guesses that need a real dual
	// step occupy one of the k probe slots. Outcomes are consumed in guess
	// order, so a round whose j-th probe accepts discards everything after
	// it, synthesized or probed, exactly like the cold driver.
	hi := s.lo
	accepted := false
	for iters := 0; !accepted && iters < maxDoubling; {
		if s.interrupted() {
			return s.errInterrupted()
		}
		type guess struct {
			lam   float64
			out   specOutcome
			probe int // index into this round's probe batch, -1 if synthesized
		}
		var round []guess
		var lambdas []float64
		l := hi
		for len(lambdas) < k && iters+len(round) < maxDoubling {
			g := guess{lam: l, probe: -1}
			if r, ok := s.synthesize(l, sc); ok {
				g.out = specOutcome{r: r, synth: true}
			} else {
				g.probe = len(lambdas)
				lambdas = append(lambdas, l)
			}
			round = append(round, g)
			l *= 2
		}
		if len(round) == 0 {
			break
		}
		results := probe(lambdas)
		for _, g := range round {
			iters++
			out := g.out
			if g.probe >= 0 {
				out = specOutcome{r: results[g.probe]}
			}
			if out.r.Interrupted {
				return s.errInterrupted()
			}
			if out.synth {
				s.res.Synthesized++
			}
			s.merge(g.lam, out.r, out.synth)
			if out.r.Schedule != nil {
				accepted = true
				hi = g.lam
				break
			}
			s.lo = g.lam
			hi = g.lam * 2
		}
	}
	if !accepted {
		return fmt.Errorf("%w (instance %q)", ErrNoSchedule, s.in.Name)
	}
	s.hi = hi
	s.res.AcceptedLambda = hi

	// Bisection phase: expand the decision tree along synthesized-certain
	// and predicted branches, then walk the outcome path exactly as the
	// cold driver does.
	for !s.converged() {
		if s.interrupted() {
			return s.errInterrupted()
		}
		type frame struct {
			nd     *specNode
			lo, hi float64
		}
		root := &specNode{}
		results := make(map[*specNode]specOutcome)
		queue := []frame{{root, s.lo, s.hi}}
		var nodes []*specNode
		var lambdas []float64
		for len(queue) > 0 && len(lambdas) < k {
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
			if r, ok := s.synthesize(mid, sc); ok {
				// Certified reject: the path through this node provably
				// continues into the upper half, so only that child can
				// ever be consumed.
				results[f.nd] = specOutcome{r: r, synth: true}
				queue = append(queue, frame{f.nd.reject, mid, f.hi})
				continue
			}
			nodes = append(nodes, f.nd)
			lambdas = append(lambdas, mid)
			if s.predictAccept(mid) {
				queue = append(queue, frame{f.nd.accept, f.lo, mid})
			} else {
				queue = append(queue, frame{f.nd.reject, mid, f.hi})
			}
		}
		if len(nodes) == 0 && len(results) == 0 {
			break // no guess can shrink the interval further
		}
		for i, r := range probe(lambdas) {
			results[nodes[i]] = specOutcome{r: r}
		}
		for nd := root; nd != nil && !s.converged(); {
			out, ok := results[nd]
			if !ok {
				break // frontier: beyond this round's resolved tree
			}
			if out.r.Interrupted {
				return s.errInterrupted()
			}
			if out.synth {
				s.res.Synthesized++
			}
			s.merge(nd.lam, out.r, out.synth)
			if out.r.Schedule != nil {
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

// DropCompiled evicts every entry derived from c from the Scratch's λ-range
// indexes and its aux cache: a lineage moving to its next residual retires
// the old tables here rather than in the wholesale clear at the cap, which
// would evict live entries too.
func (sc *Scratch) DropCompiled(c *instance.Compiled) {
	sc.seg.Drop(c)
	sc.mseg.Drop(c)
	if sc.aux != nil {
		sc.aux.DropCompiled(c)
	}
}
