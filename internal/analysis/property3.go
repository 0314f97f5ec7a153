package analysis

import (
	"math"
	"sort"

	"malsched/internal/core"
	"malsched/internal/instance"
	"malsched/internal/schedule"
	"malsched/internal/task"
)

// Levels classifies the placements of a frontier-built schedule into the
// paper's levels: level 1 are the tasks starting at time 0, level k+1 the
// tasks sitting directly on top of a level-k task (their start equals the
// supporting task's completion on a shared processor). Returns one level
// per placement index.
func Levels(in *instance.Instance, s *schedule.Schedule) []int {
	idx := make([]int, len(s.Placements))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return s.Placements[idx[a]].Start < s.Placements[idx[b]].Start
	})
	levels := make([]int, len(s.Placements))
	for _, i := range idx {
		p := s.Placements[i]
		if p.Start <= task.Eps {
			levels[i] = 1
			continue
		}
		lvl := 0
		for _, j := range idx {
			if j == i {
				continue
			}
			q := s.Placements[j]
			if q.Start >= p.Start {
				continue
			}
			if !overlap(p, q) {
				continue
			}
			if math.Abs(q.End(in)-p.Start) <= 1e-9*(1+p.Start) && levels[j] >= lvl {
				lvl = levels[j]
			}
		}
		if lvl == 0 {
			// Supported by idle frontier only (cannot happen in frontier
			// schedules); classify conservatively as outside two levels.
			levels[i] = 3
		} else {
			levels[i] = lvl + 1
		}
	}
	return levels
}

func overlap(p, q schedule.Placement) bool {
	pa, pb := p.First, p.First+p.Width
	qa, qb := q.First, q.First+q.Width
	return pa < qb && qa < pb
}

// Property3Report is the outcome of CheckProperty3.
type Property3Report struct {
	// OK is true when every first- and second-level task finishes by
	// 2θλ (Property 3) and every deeper task is sequential, shorter than
	// λ/2 and done by 3λ/2 (Lemma 1).
	OK bool
	// Violations counts offending placements.
	Violations int
	// WorstLevel2End is the latest completion among the first two levels,
	// in units of λ.
	WorstLevel2End float64
	// PrefixAreaOK reports whether the hypothesis W ≤ θmλ held (the report
	// is only meaningful for the theorem when it did).
	PrefixAreaOK bool
}

// CheckProperty3 runs the canonical list algorithm at deadline guess lambda
// and verifies Property 3 and Lemma 1 for parameter theta. Reallocation
// follows the appendix (enabled).
func CheckProperty3(in *instance.Instance, lambda, theta float64) Property3Report {
	a := core.CanonicalAllotment(in, lambda)
	rep := Property3Report{OK: true}
	if !a.OK {
		return Property3Report{}
	}
	rep.PrefixAreaOK = task.Leq(a.PrefixArea(in), theta*float64(in.M)*lambda)
	s := core.CanonicalList(in, lambda, true)
	levels := Levels(in, s)
	for i, p := range s.Placements {
		end := p.End(in)
		if levels[i] <= 2 {
			if end/lambda > rep.WorstLevel2End {
				rep.WorstLevel2End = end / lambda
			}
			if !task.Leq(end, 2*theta*lambda) {
				rep.OK = false
				rep.Violations++
			}
		} else {
			seq := p.Width == 1
			short := task.Leq(in.Tasks[p.Task].Time(p.Width), lambda/2)
			done := task.Leq(end, 1.5*lambda)
			if !(seq && short && done) {
				rep.OK = false
				rep.Violations++
			}
		}
	}
	return rep
}

// M0Row is one machine size's result in the empirical m₀ search.
type M0Row struct {
	M          int
	Trials     int // trials whose W satisfied the theorem's hypothesis
	Violations int
	// WorstMargin is the worst (latest level-≤2 completion)/(2θλ) seen.
	WorstMargin float64
}

// M0Empirical measures, for each machine size, how often Property 3 fails
// on known-optimum instances (λ = OPT = 1) whose prefix area satisfies the
// theorem's hypothesis W ≤ θm. The empirical m₀(θ) is the smallest m from
// which violations stop; figure 8 plots it against θ. (The paper derives
// m₀ analytically in the appendix; the printed formulas are unreadable in
// the available copy, so the reproduction measures the curve, and
// mechanism_test.go derives why violations are rare.)
func M0Empirical(theta float64, ms []int, trials int, seed int64) []M0Row {
	rows := make([]M0Row, 0, len(ms))
	for _, m := range ms {
		row := M0Row{M: m}
		for k := 0; k < trials; k++ {
			in := KnownOptInstance(seed+int64(1000*m+k), m)
			rep := CheckProperty3(in, 1.0, theta)
			if !rep.PrefixAreaOK {
				continue
			}
			row.Trials++
			if !rep.OK {
				row.Violations++
			}
			if margin := rep.WorstLevel2End / (2 * theta); margin > row.WorstMargin {
				row.WorstMargin = margin
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig8Point is one θ sample of the figure-8 reproduction.
type Fig8Point struct {
	Theta float64
	// M0 is the smallest m ≤ maxM with zero observed violations such that
	// all larger sampled m also show none; 0 when none qualifies.
	M0 int
	// WorstMargin is the worst observed (latest level-≤2 completion)/(2θλ)
	// over the ensemble and all sampled m — the empirical headroom of
	// Property 3 (must stay ≤ 1 for the theorem's m range).
	WorstMargin float64
}

// Fig8 reproduces the paper's figure 8 empirically. The paper's m₀(θ) is
// the *sufficient* processor count derived by the appendix's worst-case
// analysis (its printed formulas are unreadable in the available copy);
// the reproduction therefore measures, per θ, (a) the empirical m₀ — the
// smallest m from which no Property-3 violation is observed on
// known-optimum ensembles — and (b) the worst guarantee margin.
// Random and structured ensembles show no violations already at tiny m,
// which matches the paper's own §5 remark that practical instances behave
// far better than the worst-case bound; the committed table records that
// finding rather than overclaiming the analytic curve.
func Fig8(thetas []float64, maxM, trials int, seed int64) []Fig8Point {
	ms := make([]int, 0, maxM-1)
	for m := 2; m <= maxM; m++ {
		ms = append(ms, m)
	}
	pts := make([]Fig8Point, 0, len(thetas))
	for _, th := range thetas {
		rows := M0Empirical(th, ms, trials, seed)
		m0 := 0
		for i := len(rows) - 1; i >= 0; i-- {
			if rows[i].Violations > 0 {
				break
			}
			m0 = rows[i].M
		}
		worst := 0.0
		for _, r := range rows {
			if r.WorstMargin > worst {
				worst = r.WorstMargin
			}
		}
		pts = append(pts, Fig8Point{Theta: th, M0: m0, WorstMargin: worst})
	}
	return pts
}
