package analysis

// This file documents, as executable tests, why Property-3 violations are
// hard to realise on instances that actually admit a schedule of length λ,
// which is why the empirical m₀ search (figure 8) observes none even at
// small m.
//
// Mechanism. A violation needs a second-level task i (length t' ≤ θλ, by
// the W-hypothesis) supported by a first-level task j with t_j + t' > 2θλ,
// i.e. t_j > 2θλ − t' ≥ θλ. For i to be pushed off the first level, every
// window of γ_i processors must contain a tall column; but work monotony
// pins γ at λ to ⌈(witness width)·(witness height)⌉ ≤ witness width — the
// steepest profile a monotone task can have below its witness width is the
// work-preserving one (Property 1 in contrapositive). So on an instance
// with OPT ≤ λ the canonical allotment is never wider than the optimal
// one, first-level room is at least what the optimal schedule used, and
// with the leftmost-at-zero rule the idle first-level processors form a
// suffix that either hosts i directly or triggers the appendix's
// reallocation (⌈γ_i/2⌉ processors at most double t', staying ≤ 2θλ).
// The corner cases that remain — a fragmented suffix narrower than
// ⌈γ_i/2⌉ — are exactly what the paper's m₁/m₂ analysis bounds; the tests
// below exhibit both defusing mechanisms.

import (
	"fmt"
	"testing"

	"malsched/internal/core"
	"malsched/internal/instance"
	"malsched/internal/schedule"
	"malsched/internal/task"
)

// pillarVictim builds the canonical attack: m−w "pillar" columns of height
// 1 and a victim of witness width w and height h ∈ (2θ−1, θ], completed to
// an exact tiling by a filler column above the victim. OPT = 1 by
// construction.
func pillarVictim(m, w int, h float64) *instance.Instance {
	var tasks []task.Task
	for i := 0; i < m-w; i++ {
		tasks = append(tasks, task.Linear(fmt.Sprintf("pillar%d", i), 1, m))
	}
	// Victim: work-preserving profile, witness (w, h).
	times := make([]float64, m)
	for p := 1; p <= m; p++ {
		times[p-1] = h * float64(w) / float64(p)
	}
	tasks = append(tasks, task.MustNew("victim", task.Monotonize(times)))
	// Filler above the victim: w sequential strips of height 1−h.
	for i := 0; i < w; i++ {
		tasks = append(tasks, task.Sequential(fmt.Sprintf("fill%d", i), 1-h, m))
	}
	return instance.MustNew(fmt.Sprintf("pillar-victim(m=%d,w=%d,h=%.2f)", m, w, h), m, tasks)
}

// The attack is defused at every small machine size: the victim's
// canonical width shrinks to ⌈wh⌉ ≤ w (work monotony), so the suffix the
// pillars leave free still hosts it at level 1 — Property 3 holds.
func TestPillarVictimDefusedByWorkMonotony(t *testing.T) {
	theta := core.Theta
	for m := 4; m <= 16; m++ {
		for _, w := range []int{2, 3, 4} {
			if w >= m {
				continue
			}
			h := 0.8 // ∈ (2θ−1 ≈ 0.732, θ ≈ 0.866]
			in := pillarVictim(m, w, h)
			// Sanity: OPT = 1 (witness tiling) so λ = 1 qualifies.
			rep := CheckProperty3(in, 1, theta)
			if !rep.OK {
				t.Fatalf("m=%d w=%d: Property 3 violated — the defusing argument failed", m, w)
			}
			// The victim's canonical width is indeed ⌈wh⌉ < w.
			a := core.CanonicalAllotment(in, 1)
			victim := m - w // index of the victim task
			want := int(float64(w)*h + 0.999999)
			if a.Gamma[victim] != want {
				t.Fatalf("m=%d w=%d: victim γ=%d, want ⌈wh⌉=%d", m, w, a.Gamma[victim], want)
			}
		}
	}
}

// With the reallocation rule disabled AND the machine too full for the
// suffix, the attack can push the first two levels past the budget — the
// appendix's rule is load-bearing. We search a small grid for a case where
// plain canonical list exceeds 2θλ while the reallocating variant stays
// within it (the difference the appendix's m₀ analysis quantifies).
func TestReallocationRuleIsLoadBearing(t *testing.T) {
	theta := core.Theta
	found := false
	for m := 4; m <= 12 && !found; m++ {
		for seed := int64(0); seed < 200 && !found; seed++ {
			in := KnownOptInstance(seed, m)
			plain := core.CanonicalList(in, 1, false)
			realloc := core.CanonicalList(in, 1, true)
			if plain == nil || realloc == nil {
				continue
			}
			if plain.Makespan(in) > realloc.Makespan(in)+1e-9 {
				found = true
				if realloc.Makespan(in) > core.Rho+1e-9 {
					// Both may exceed on λ < OPT instances, but these are
					// known-OPT=1, so the reallocating variant must stay
					// within √3 whenever W qualifies.
					rep := CheckProperty3(in, 1, theta)
					if rep.PrefixAreaOK && !rep.OK {
						t.Fatalf("reallocating variant violated Property 3 on %s", in.Name)
					}
				}
			}
		}
	}
	if !found {
		t.Skip("no instance separated the variants in this grid (both safe)")
	}
}

// End to end, the attack instances are scheduled within √3 of their exact
// optimum 1 by the full algorithm.
func TestPillarVictimEndToEnd(t *testing.T) {
	for m := 4; m <= 20; m += 4 {
		in := pillarVictim(m, 3, 0.8)
		res, err := core.Approximate(in, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := schedule.Validate(in, res.Schedule, true); err != nil {
			t.Fatal(err)
		}
		if res.Makespan > core.Rho+1e-6 { // OPT = 1 exactly
			t.Fatalf("m=%d: makespan %v exceeds √3·OPT", m, res.Makespan)
		}
	}
}
