// Package analysis contains the experiment harness of the reproduction:
// instances with exactly known optimum, the Property-3 checker of the
// canonical list algorithm, the empirical m₀(θ) curve behind the paper's
// figure 8, and the ratio-comparison machinery behind the experiment tables
// (msbench -tables).
package analysis

import (
	"fmt"
	"math/rand"

	"malsched/internal/instance"
	"malsched/internal/task"
)

// KnownOptInstance builds an instance whose optimal makespan is exactly 1:
// the m×1 machine-time rectangle is guillotine-partitioned into blocks and
// each block (w processors × h time) becomes a malleable task whose profile
// satisfies t(w) = h. The tiling witnesses a schedule of makespan 1, and
// the total sequential work equals the rectangle's area m, so the area
// bound gives OPT ≥ 1 — hence OPT = 1 exactly. These instances drive every
// experiment that needs true ratios rather than ratios against lower
// bounds (E1/Fig 8, parts of E5).
//
// Two profile shapes are mixed: work-preserving linear tasks
// (t(p) = wh/p everywhere) and "rigid-ish" tasks that gain nothing beyond
// their block width (t(p) = h for p ≥ w), which stress the canonical-list
// analysis harder.
func KnownOptInstance(seed int64, m int) *instance.Instance {
	rng := rand.New(rand.NewSource(seed))
	blocks := guillotine(rng, m, 1.0, 0)
	tasks := make([]task.Task, len(blocks))
	for i, b := range blocks {
		times := make([]float64, m)
		for p := 1; p <= m; p++ {
			switch {
			case p <= b.w:
				times[p-1] = b.h * float64(b.w) / float64(p)
			case rngStyleRigid(seed, i):
				times[p-1] = b.h
			default:
				times[p-1] = b.h * float64(b.w) / float64(p)
			}
		}
		tasks[i] = task.MustNew(fmt.Sprintf("blk%d(w=%d,h=%.3f)", i, b.w, b.h), task.Monotonize(times))
	}
	return instance.MustNew(fmt.Sprintf("known-opt(m=%d,seed=%d)", m, seed), m, tasks)
}

// rngStyleRigid deterministically decides the profile style per block.
func rngStyleRigid(seed int64, i int) bool {
	return (seed+int64(i)*2654435761)%2 == 0
}

type block struct {
	w int
	h float64
}

// guillotine recursively splits a w×h rectangle into blocks. Splits stop at
// width 1, at small heights, or randomly, yielding 2–3 blocks per unit of
// width on average.
func guillotine(rng *rand.Rand, w int, h float64, depth int) []block {
	if w == 1 || h < 0.15 || depth > 6 || rng.Float64() < 0.25 {
		return []block{{w: w, h: h}}
	}
	if w > 1 && (rng.Float64() < 0.5) {
		// Vertical cut: split processors.
		w1 := 1 + rng.Intn(w-1)
		return append(guillotine(rng, w1, h, depth+1), guillotine(rng, w-w1, h, depth+1)...)
	}
	// Horizontal cut: split time.
	f := 0.25 + 0.5*rng.Float64()
	return append(guillotine(rng, w, h*f, depth+1), guillotine(rng, w, h*(1-f), depth+1)...)
}
