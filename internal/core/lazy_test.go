package core

import (
	"fmt"
	"math"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/schedule"
	"malsched/internal/task"
)

// eagerDualStep is the reference for dualStep's laziness: the dual step
// building every applicable construction — both lists and, for m > SmallM,
// the two-shelf — and keeping the shortest, whatever the lists achieved.
// Like dualStep, an accepted winner is returned inside sc.
func eagerDualStep(c *instance.Compiled, lambda float64, p Params, sc *Scratch) StepResult {
	m := c.M()
	sc.seg.Reserve(2) // e is held across malleableList's lookup
	e := filled(&sc.seg, c, lambda)
	a := allotmentOf(e, lambda)
	if !a.OK {
		return StepResult{Reject: RejectTooSlow, Certified: true}
	}
	if !task.Leq(e.Work, float64(m)*lambda) {
		return StepResult{Reject: RejectArea, Certified: true}
	}
	order := e.Val.sortedOrder(c, a, &sc.keys)
	w := e.Val.area
	knapsackBranch := !task.Leq(w, p.theta()*float64(m)*lambda) && m > p.SmallM

	var best draft
	consider := func(d draft) {
		if d.built() && (!best.built() || d.makespan < best.makespan) {
			best = d
		}
	}
	consider(malleableList(c, lambda, sc))
	sc.canonicalPair(c, e, a, order, func() bool { return false })
	consider(sc.clist[1])
	consider(sc.clist[0])
	var shelf shelfDraft
	if m > p.SmallM {
		shelf = twoShelfFromAllotment(c, a, p, sc)
		consider(shelf.draft)
	}
	if best.built() && task.Leq(best.makespan, p.Rho*lambda) {
		sc.won = schedule.Schedule{Algorithm: best.algorithm, Placements: best.placements}
		return StepResult{Schedule: &sc.won, Makespan: best.makespan, Branch: best.algorithm, PrefixArea: w}
	}
	if knapsackBranch && !shelf.built() && shelf.exact {
		return StepResult{Reject: RejectKnapsack, Certified: true, PrefixArea: w}
	}
	return StepResult{Reject: RejectUnproven, PrefixArea: w}
}

// eagerProber runs whole searches on eagerDualStep.
type eagerProber struct{}

func (eagerProber) Probe(in *instance.Instance, c *instance.Compiled, lambda float64, p Params, sc *Scratch, _ <-chan struct{}) StepResult {
	r := eagerDualStep(c, lambda, p, sc)
	r.Schedule = owned(r.Schedule)
	return r
}

// lambdaRecorder is the default dual step, recording every guess.
type lambdaRecorder struct{ lambdas []float64 }

func (l *lambdaRecorder) Probe(in *instance.Instance, c *instance.Compiled, lambda float64, p Params, sc *Scratch, interrupt <-chan struct{}) StepResult {
	l.lambdas = append(l.lambdas, lambda)
	return DualProber{}.Probe(in, c, lambda, p, sc, interrupt)
}

// The lazy dual step decides every guess as the eager one does. On every λ
// a search probes — five families at nine shapes, the knapsack and
// two-shelf stress generators from m = 7 to 64, and eleven 0.9-long
// sequential tasks on ten processors, whose probe at λ = 1 ends on the
// exhaustive knapsack — acceptance, the rejection reason, its certificate
// and the prefix area agree, and wherever the eager winner is a list the
// lazy step returns that very schedule. Where the eager two-shelf beat both
// lists of an accepted guess, the lazy step keeps a list instead; the test
// counts those guesses, and holds the final answers of the searches (plan,
// makespan, lower bound, branch and probe count) to the eager searches'.
func TestLazyDualStepMatchesEager(t *testing.T) {
	p := DefaultParams()
	var ins []*instance.Instance
	for _, name := range familyNames() {
		gen := instance.Families()[name]
		// The shapes of the serving benchmark and of the golden grid (n ∈
		// {12, 40} × m ∈ {8, 64}, seeds 1–2) among others.
		for _, sz := range [][2]int{{8, 4}, {12, 8}, {18, 8}, {24, 16}, {40, 8}, {40, 16}, {60, 32}, {12, 64}, {40, 64}} {
			for seed := int64(1); seed <= 4; seed++ {
				ins = append(ins, gen(seed, sz[0], sz[1]))
			}
		}
	}
	for m := 7; m <= 64; m += 3 {
		seed := int64(m)
		ins = append(ins, instance.KnapsackStress(seed, m), instance.TwoShelfStress(seed, m))
	}
	var crowdedTasks []task.Task
	for i := 0; i < 11; i++ {
		crowdedTasks = append(crowdedTasks, task.Sequential("s", 0.9, 10))
	}
	crowded := instance.MustNew("crowded", 10, crowdedTasks)
	ins = append(ins, crowded)

	var steps, accepted, shelfWins, knapsackRejects, changed int
	for k, in := range ins {
		c := instance.Compile(in)
		rec := &lambdaRecorder{}
		lazyRes, err := Approximate(in, Options{Compiled: c, Prober: rec})
		if err != nil {
			t.Fatalf("instance %d (%s): %v", k, in.Name, err)
		}
		eagerRes, err := Approximate(in, Options{Compiled: c, Prober: eagerProber{}})
		if err != nil {
			t.Fatalf("instance %d (%s) eager: %v", k, in.Name, err)
		}
		if math.Float64bits(lazyRes.Makespan) != math.Float64bits(eagerRes.Makespan) ||
			lazyRes.LowerBound != eagerRes.LowerBound || lazyRes.Branch != eagerRes.Branch ||
			lazyRes.Probes != eagerRes.Probes || !sameSchedule(lazyRes.Schedule, eagerRes.Schedule) {
			changed++
			t.Logf("instance %d (%s): lazy search %v/%v/%s/%d, eager %v/%v/%s/%d", k, in.Name,
				lazyRes.Makespan, lazyRes.LowerBound, lazyRes.Branch, lazyRes.Probes,
				eagerRes.Makespan, eagerRes.LowerBound, eagerRes.Branch, eagerRes.Probes)
		}

		lambdas := rec.lambdas
		if in == crowded {
			lambdas = append(lambdas, 1)
		}
		lazySc, eagerSc := NewScratch(), NewScratch()
		for _, lambda := range lambdas {
			lazy := dualStep(c, lambda, p, lazySc, nil)
			eager := eagerDualStep(c, lambda, p, eagerSc)
			steps++
			where := fmt.Sprintf("instance %d (%s, m=%d) at λ=%v", k, in.Name, in.M, lambda)
			if (lazy.Schedule != nil) != (eager.Schedule != nil) || lazy.Reject != eager.Reject ||
				lazy.Certified != eager.Certified ||
				math.Float64bits(lazy.PrefixArea) != math.Float64bits(eager.PrefixArea) {
				t.Fatalf("%s: lazy %v/%v/%v, eager %v/%v/%v", where,
					lazy.Reject, lazy.Certified, lazy.PrefixArea, eager.Reject, eager.Certified, eager.PrefixArea)
			}
			if eager.Reject == RejectKnapsack {
				knapsackRejects++
			}
			if eager.Schedule == nil {
				continue
			}
			accepted++
			if eager.Branch == "two-shelf" {
				shelfWins++
				continue
			}
			if lazy.Branch != eager.Branch || math.Float64bits(lazy.Makespan) != math.Float64bits(eager.Makespan) ||
				!sameSchedule(lazy.Schedule, eager.Schedule) {
				t.Fatalf("%s: lazy kept %s (%v), eager %s (%v)", where, lazy.Branch, lazy.Makespan, eager.Branch, eager.Makespan)
			}
		}
	}
	if knapsackRejects == 0 {
		t.Error("no guess ended on the exhaustive knapsack: the certified two-shelf rejection went unexercised")
	}
	if shelfWins == 0 {
		t.Error("no accepted guess on which the eager two-shelf won: the one case where the steps differ went unexercised")
	}
	if changed != 0 {
		t.Errorf("%d of %d searches changed their final answer", changed, len(ins))
	}
	t.Logf("%d searches, %d dual steps: %d accepted, of which the eager two-shelf won %d; %d knapsack rejections; %d final answers changed",
		len(ins), steps, accepted, shelfWins, knapsackRejects, changed)
}
