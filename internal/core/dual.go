package core

import (
	"malsched/internal/instance"
	"malsched/internal/schedule"
	"malsched/internal/task"
)

// RejectReason classifies why a dual step rejected a deadline guess.
type RejectReason int

const (
	// RejectNone: the guess was accepted.
	RejectNone RejectReason = iota
	// RejectTooSlow: some task cannot meet λ on the whole machine, so
	// OPT > λ (certificate).
	RejectTooSlow
	// RejectArea: Σ w_i(γ_i(λ)) > m·λ violates Property 2, so OPT > λ
	// (certificate).
	RejectArea
	// RejectKnapsack: W ≥ θmλ and the exhaustive two-shelf search failed;
	// by Lemmas 3–4 no schedule of length ≤ λ exists (certificate).
	RejectKnapsack
	// RejectUnproven: every construction exceeded ρλ without a
	// certificate. The paper's theorems exclude this for λ ≥ OPT; it is
	// kept so the search driver stays sound if it ever occurs.
	RejectUnproven
)

// String implements fmt.Stringer.
func (r RejectReason) String() string {
	switch r {
	case RejectNone:
		return "accepted"
	case RejectTooSlow:
		return "task slower than λ on full machine"
	case RejectArea:
		return "canonical work exceeds m·λ"
	case RejectKnapsack:
		return "no two-shelf schedule exists"
	case RejectUnproven:
		return "constructions exceeded ρλ (no certificate)"
	default:
		return "unknown"
	}
}

// StepResult is the outcome of one dual-approximation step.
type StepResult struct {
	// Schedule is the constructed schedule when accepted (makespan ≤ ρλ),
	// nil otherwise. A StepResult that crossed the Prober seam owns it.
	Schedule *schedule.Schedule
	// Makespan is Schedule's makespan, accumulated while it was built (0
	// when rejected). The search ranks accepted probes by it, so a Prober
	// that builds its own schedules must fill it in.
	Makespan float64
	// Reject explains a nil Schedule.
	Reject RejectReason
	// Certified reports that the rejection proves OPT > λ.
	Certified bool
	// Branch names the construction that won: "malleable-list",
	// "canonical-list", "canonical-list+realloc" or "two-shelf".
	Branch string
	// PrefixArea is W, recorded for the experiment harness (0 when
	// rejected before computing it).
	PrefixArea float64
	// Interrupted reports that the probe was abandoned mid-construction
	// because the search's Interrupt channel fired; no other field is
	// meaningful. Only the interruptible path (Approximate with
	// Options.Interrupt) can produce it.
	Interrupted bool
}

// dualStep is the paper's dual √3-approximation: given λ it either returns
// a schedule of makespan ≤ ρλ or rejects, certifying OPT > λ whenever one
// of the paper's certificates applies (every rejection for λ ≥ OPT would
// contradict Theorems 1–3; the property tests assert certified rejections
// are the only ones that occur).
//
// The two list constructions are always built and the shorter kept. The
// guarantee is per branch, so the §4 two-shelf (m > SmallM) is built only
// when neither list meets ρλ: it can then still accept the guess, and
// when it fails exhaustively with W > θmλ it certifies the rejection.
//
// It runs on scratch memory: all per-probe working buffers — the
// constructions' placements included — come from sc, and nothing survives
// the next probe on the same sc: the drafts' makespans are compared and an
// accepted winner is returned un-copied, as sc.won aliasing its draft's
// buffer. The probe allocates nothing; whoever keeps the schedule copies
// it (owned: DualProber.Probe; or the default sequential search, into the
// Scratch's incumbent). The canonical
// allotment, its work, the by-decreasing-time order and the prefix area
// come from sc's λ-segment cache and the two list constructions from the
// drafts sc kept of the allotment that last built them, so all of it is
// free when the allotment repeats; only the two-shelf reads λ itself, and
// it runs only when both lists miss ρλ (the acceptance, the rejection and
// its certificate are those of building every construction; only an
// accepted winner the two-shelf would have beaten differs). A non-nil
// interrupt is polled between the probe's constructions (each is the
// O(n log n)-or-worse unit of work), so a timeout lands within one
// construction even when the whole search is a single probe; a fired
// interrupt yields StepResult{Interrupted: true}.
func dualStep(c *instance.Compiled, lambda float64, p Params, sc *Scratch, interrupt <-chan struct{}) StepResult {
	stop := func() bool {
		select {
		case <-interrupt: // nil channel: never ready
			return true
		default:
			return false
		}
	}
	m := c.M()

	// Canonical allotment and total canonical work, then (only for guesses
	// surviving the Property-2 test) the by-decreasing-time order and the
	// prefix area — all four live in the λ-segment cache. The probe holds
	// its entry across malleableList's lookup, so it reserves room for both
	// first: a lookup at the cap would clear the index and could hand the
	// held entry out again under the relaxed deadline's allotment.
	sc.seg.Reserve(2)
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

	var best draft
	consider := func(d draft) {
		if d.built() && (!best.built() || d.makespan < best.makespan) {
			best = d
		}
	}
	meets := func() bool { return best.built() && task.Leq(best.makespan, p.Rho*lambda) }

	if stop() {
		return StepResult{Interrupted: true}
	}
	consider(malleableList(c, lambda, sc))
	if stop() {
		return StepResult{Interrupted: true}
	}
	if !sc.canonicalPair(c, e, a, order, stop) {
		return StepResult{Interrupted: true}
	}
	consider(sc.clist[1])
	consider(sc.clist[0])
	var shelf shelfDraft
	if m > p.SmallM && !meets() {
		if stop() {
			return StepResult{Interrupted: true}
		}
		shelf = twoShelfFromAllotment(c, a, p, sc)
		consider(shelf.draft)
	}

	if meets() {
		sc.won = schedule.Schedule{Algorithm: best.algorithm, Placements: best.placements}
		return StepResult{Schedule: &sc.won, Makespan: best.makespan, Branch: best.algorithm, PrefixArea: w}
	}
	knapsackBranch := !task.Leq(w, p.theta()*float64(m)*lambda) && m > p.SmallM
	if knapsackBranch && !shelf.built() && shelf.exact {
		return StepResult{Reject: RejectKnapsack, Certified: true, PrefixArea: w}
	}
	return StepResult{Reject: RejectUnproven, PrefixArea: w}
}
