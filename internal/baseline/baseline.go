// Package baseline implements the two-phase methods the paper improves on
// (§1): Turek–Wolf–Yu allotment selection [18] with Ludwig's efficient
// selection rule [12], composed with a non-malleable scheduling phase —
// Graham/Garey-style list scheduling (the factor-2 route the paper quotes)
// or a level strip-packer (NFDH/FFDH/BLD, which stand in for Steinberg's
// algorithm [17]; see package strippack). Naive single-allotment baselines
// complete the field for the experiments.
package baseline

import (
	"fmt"
	"math"
	"sort"

	"malsched/internal/instance"
	"malsched/internal/rigid"
	"malsched/internal/schedule"
	"malsched/internal/strippack"
)

// LudwigAllotment selects the allotment minimising
// L(a) = max(Σ_i w_i(a_i)/m, max_i t_i(a_i)) over all allotments.
// Monotony makes the minimiser a canonical allotment γ(λ') for some
// candidate deadline λ' ∈ {t_i(p)} (taking λ' = tmax(a) of any allotment a
// and replacing a by γ(λ') never increases either term), so a binary search
// over the O(nm) sorted candidate values finds the optimum; L* ≤ OPT since
// the optimal schedule's allotment is a witness. Returns the allotment and
// L*.
func LudwigAllotment(in *instance.Instance) ([]int, float64) {
	// Candidate deadlines: every distinct execution time.
	var cands []float64
	for _, t := range in.Tasks {
		cands = append(cands, t.Times()...)
	}
	sort.Float64s(cands)
	cands = dedup(cands)

	eval := func(lambda float64) (alloc []int, area, tmax float64, ok bool) {
		alloc = make([]int, in.N())
		for i, t := range in.Tasks {
			g, gok := t.Canonical(lambda)
			if !gok {
				return nil, 0, 0, false
			}
			alloc[i] = g
			area += t.Work(g)
			if tt := t.Time(g); tt > tmax {
				tmax = tt
			}
		}
		return alloc, area / float64(in.M), tmax, true
	}

	// The area term is non-increasing and the tmax term non-decreasing in
	// λ'; the minimum of their max sits at the crossover. Find the first
	// candidate where tmax ≥ area by binary search, then compare its
	// neighbours.
	feasibleFrom := sort.Search(len(cands), func(k int) bool {
		_, _, _, ok := eval(cands[k])
		return ok
	})
	cands = cands[feasibleFrom:]
	cross := sort.Search(len(cands), func(k int) bool {
		_, area, tmax, ok := eval(cands[k])
		return ok && tmax >= area
	})
	bestAlloc, bestL := []int(nil), math.Inf(1)
	for _, k := range []int{cross - 1, cross, cross + 1} {
		if k < 0 || k >= len(cands) {
			continue
		}
		if alloc, area, tmax, ok := eval(cands[k]); ok && math.Max(area, tmax) < bestL {
			bestAlloc, bestL = alloc, math.Max(area, tmax)
		}
	}
	return bestAlloc, bestL
}

func dedup(s []float64) []float64 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// rigidJobs converts an allotment into the rigid instance of the second
// phase.
func rigidJobs(in *instance.Instance, alloc []int) []rigid.Job {
	jobs := make([]rigid.Job, in.N())
	for i, t := range in.Tasks {
		jobs[i] = rigid.Job{Width: alloc[i], Time: t.Time(alloc[i])}
	}
	return jobs
}

// TWYList is the factor-2 baseline: Ludwig allotment followed by greedy
// (non-contiguous) list scheduling in non-increasing time order. Its
// makespan is at most 2·L* ≤ 2·OPT by the Garey–Graham resource argument
// the paper quotes in §3.
func TWYList(in *instance.Instance) *schedule.Schedule {
	alloc, _ := LudwigAllotment(in)
	jobs := rigidJobs(in, alloc)
	pls := rigid.List(in.M, jobs, rigid.ByDecreasingTime(jobs))
	s := &schedule.Schedule{Algorithm: "twy-list"}
	for i, p := range pls {
		s.Placements = append(s.Placements, schedule.Placement{
			Task: i, Start: p.Start, Width: jobs[i].Width, First: -1, ProcSet: p.Procs,
		})
	}
	return s
}

// TWYPack is the contiguous two-phase baseline: Ludwig allotment followed
// by a strip packer ("nfdh", "ffdh" or "bld"). FFDH gives makespan ≤
// 1.7·W/m + tmax ≤ 2.7·OPT; in practice it is the strongest of the three.
func TWYPack(in *instance.Instance, packer string) (*schedule.Schedule, error) {
	alloc, _ := LudwigAllotment(in)
	jobs := rigidJobs(in, alloc)
	rects := make([]strippack.Rect, len(jobs))
	for i, j := range jobs {
		rects[i] = strippack.Rect{Width: j.Width, Height: j.Time}
	}
	var pos []strippack.Pos
	var h float64
	var err error
	switch packer {
	case "nfdh":
		pos, h, err = strippack.NFDH(rects, in.M)
	case "ffdh":
		pos, h, err = strippack.FFDH(rects, in.M)
	case "bld":
		pos, h, err = strippack.BLD(rects, in.M)
	default:
		return nil, fmt.Errorf("baseline: unknown packer %q", packer)
	}
	if err != nil {
		return nil, err
	}
	if err := strippack.Validate(rects, pos, in.M, h); err != nil {
		return nil, err
	}
	s := &schedule.Schedule{Algorithm: "twy-" + packer}
	for i := range jobs {
		s.Placements = append(s.Placements, schedule.Placement{
			Task: i, Start: pos[i].Y, Width: jobs[i].Width, First: pos[i].X,
		})
	}
	return s, nil
}

// SeqLPT ignores malleability: every task sequential, LPT order. The
// "do not parallelise" straw man.
func SeqLPT(in *instance.Instance) *schedule.Schedule {
	durations := make([]float64, in.N())
	order := make([]int, in.N())
	for i, t := range in.Tasks {
		durations[i] = t.SeqTime()
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return durations[order[a]] > durations[order[b]] })
	proc, start := rigid.LPT(in.M, durations, nil, order)
	s := &schedule.Schedule{Algorithm: "seq-lpt"}
	for i := range durations {
		s.Placements = append(s.Placements, schedule.Placement{
			Task: i, Start: start[i], Width: 1, First: proc[i],
		})
	}
	return s
}

// FullParallel ignores malleability the other way: every task on the whole
// machine, back to back. The "parallelise everything" straw man.
func FullParallel(in *instance.Instance) *schedule.Schedule {
	s := &schedule.Schedule{Algorithm: "full-parallel"}
	var t0 float64
	for i, t := range in.Tasks {
		w := t.MaxProcs()
		s.Placements = append(s.Placements, schedule.Placement{
			Task: i, Start: t0, Width: w, First: 0,
		})
		t0 += t.Time(w)
	}
	return s
}

// Algorithm names a runnable baseline for the experiment harness.
type Algorithm struct {
	Name string
	Run  func(*instance.Instance) (*schedule.Schedule, error)
}

// All returns the baseline field used by experiment E5.
func All() []Algorithm {
	return []Algorithm{
		{"twy-list", func(in *instance.Instance) (*schedule.Schedule, error) { return TWYList(in), nil }},
		{"twy-ffdh", func(in *instance.Instance) (*schedule.Schedule, error) { return TWYPack(in, "ffdh") }},
		{"twy-nfdh", func(in *instance.Instance) (*schedule.Schedule, error) { return TWYPack(in, "nfdh") }},
		{"twy-bld", func(in *instance.Instance) (*schedule.Schedule, error) { return TWYPack(in, "bld") }},
		{"seq-lpt", func(in *instance.Instance) (*schedule.Schedule, error) { return SeqLPT(in), nil }},
		{"full-parallel", func(in *instance.Instance) (*schedule.Schedule, error) { return FullParallel(in), nil }},
	}
}
