package analysis

import (
	"fmt"
	"io"
	"sort"
	"time"

	"malsched/internal/baseline"
	"malsched/internal/core"
	"malsched/internal/instance"
	"malsched/internal/lowerbound"
	"malsched/internal/schedule"
)

// Row aggregates an algorithm's behaviour over a cell of the experiment
// grid (family × n × m over several seeds).
type Row struct {
	Family    string
	N, M      int
	Algorithm string
	// MeanRatio and MaxRatio are against the certified squashed-area lower
	// bound (so both are upper bounds on the true ratios).
	MeanRatio, MaxRatio float64
	// MeanIdleFrac is the mean idle fraction below the makespan.
	MeanIdleFrac float64
	// MeanMicros is the mean wall-clock per instance in microseconds.
	MeanMicros float64
	// Errors counts failed runs (always 0 in a healthy suite).
	Errors int
}

// Algorithms returns the full contender list of experiment E5: the paper's
// algorithm (plain and compacted) plus every baseline.
func Algorithms() []baseline.Algorithm {
	algs := []baseline.Algorithm{
		{Name: "mrt-sqrt3", Run: func(in *instance.Instance) (*schedule.Schedule, error) {
			r, err := core.Approximate(in, core.Options{})
			if err != nil {
				return nil, err
			}
			return r.Schedule, nil
		}},
		{Name: "mrt-sqrt3+compact", Run: func(in *instance.Instance) (*schedule.Schedule, error) {
			r, err := core.Approximate(in, core.Options{Compact: true})
			if err != nil {
				return nil, err
			}
			return r.Schedule, nil
		}},
	}
	return append(algs, baseline.All()...)
}

// Compare runs every algorithm over the grid and aggregates ratios against
// the squashed-area bound. seeds instances are drawn per cell.
func Compare(families []string, ns, ms []int, seeds int, seed0 int64) []Row {
	fams := instance.Families()
	algs := Algorithms()
	var rows []Row
	for _, fam := range families {
		gen := fams[fam]
		if gen == nil {
			panic(fmt.Sprintf("analysis: unknown family %q", fam))
		}
		for _, n := range ns {
			for _, m := range ms {
				acc := make(map[string]*Row)
				for _, a := range algs {
					acc[a.Name] = &Row{Family: fam, N: n, M: m, Algorithm: a.Name}
				}
				for s := 0; s < seeds; s++ {
					in := gen(seed0+int64(s), n, m)
					lb := lowerbound.SquashedArea(in)
					for _, a := range algs {
						r := acc[a.Name]
						t0 := time.Now()
						sch, err := a.Run(in)
						el := time.Since(t0)
						if err != nil || sch == nil {
							r.Errors++
							continue
						}
						ratio := sch.Makespan(in) / lb
						r.MeanRatio += ratio
						if ratio > r.MaxRatio {
							r.MaxRatio = ratio
						}
						r.MeanIdleFrac += sch.Idle(in) / (float64(in.M) * sch.Makespan(in))
						r.MeanMicros += float64(el.Microseconds())
					}
				}
				for _, a := range algs {
					r := acc[a.Name]
					ok := float64(seeds - r.Errors)
					if ok > 0 {
						r.MeanRatio /= ok
						r.MeanIdleFrac /= ok
						r.MeanMicros /= ok
					}
					rows = append(rows, *r)
				}
			}
		}
	}
	return rows
}

// CompareKnownOpt runs every algorithm on known-optimum instances, so the
// reported ratios are exact (OPT = 1): the makespan is the ratio.
func CompareKnownOpt(ms []int, seeds int, seed0 int64) []Row {
	algs := Algorithms()
	var rows []Row
	for _, m := range ms {
		acc := make(map[string]*Row)
		for _, a := range algs {
			acc[a.Name] = &Row{Family: "known-opt", M: m, Algorithm: a.Name}
		}
		for s := 0; s < seeds; s++ {
			in := KnownOptInstance(seed0+int64(s), m)
			for _, a := range algs {
				r := acc[a.Name]
				r.N = in.N()
				t0 := time.Now()
				sch, err := a.Run(in)
				el := time.Since(t0)
				if err != nil || sch == nil {
					r.Errors++
					continue
				}
				ratio := sch.Makespan(in) // OPT = 1
				r.MeanRatio += ratio
				if ratio > r.MaxRatio {
					r.MaxRatio = ratio
				}
				r.MeanIdleFrac += sch.Idle(in) / (float64(in.M) * sch.Makespan(in))
				r.MeanMicros += float64(el.Microseconds())
			}
		}
		for _, a := range algs {
			r := acc[a.Name]
			ok := float64(seeds - r.Errors)
			if ok > 0 {
				r.MeanRatio /= ok
				r.MeanIdleFrac /= ok
				r.MeanMicros /= ok
			}
			rows = append(rows, *r)
		}
	}
	return rows
}

// WriteMarkdown renders rows as a GitHub-flavoured markdown table, sorted
// by (family, n, m, algorithm) for stable diffs between runs.
func WriteMarkdown(w io.Writer, rows []Row) {
	sorted := append([]Row(nil), rows...)
	sort.Slice(sorted, func(a, b int) bool {
		x, y := sorted[a], sorted[b]
		if x.Family != y.Family {
			return x.Family < y.Family
		}
		if x.N != y.N {
			return x.N < y.N
		}
		if x.M != y.M {
			return x.M < y.M
		}
		return x.Algorithm < y.Algorithm
	})
	fmt.Fprintln(w, "| family | n | m | algorithm | mean ratio | max ratio | idle frac | µs/instance | errors |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	for _, r := range sorted {
		fmt.Fprintf(w, "| %s | %d | %d | %s | %.4f | %.4f | %.3f | %.0f | %d |\n",
			r.Family, r.N, r.M, r.Algorithm, r.MeanRatio, r.MaxRatio, r.MeanIdleFrac, r.MeanMicros, r.Errors)
	}
}
