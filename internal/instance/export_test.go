package instance

import "sort"

// AxisBuilt reports whether c's merged breakpoint axis has been built. For
// tests that pin which callers pay for it; read it only when no goroutine
// can be inside Segment or GlobalBreakpoints.
func AxisBuilt(c *Compiled) bool { return c.axis != nil }

// Breakpoints returns task i's λ-threshold row, freshly computed: entry
// p-1 is the exact smallest λ with task.Leq(t_i(p), λ), so on
// [row[p-1], row[p-2]) the canonical allotment is p (rows are
// non-increasing for monotone profiles).
func (c *Compiled) Breakpoints(i int) []float64 {
	row := make([]float64, c.MaxProcs(i))
	for p := range row {
		row[p] = leqThreshold(c.Time(i, p+1))
	}
	return row
}

// ReferenceAxis is the breakpoint axis derived on the test side from the
// per-task rows: every Breakpoints(i) entry, sorted, distinct.
func ReferenceAxis(c *Compiled) []float64 {
	var all []float64
	for i := 0; i < c.N(); i++ {
		all = append(all, c.Breakpoints(i)...)
	}
	sort.Float64s(all)
	axis := all[:0]
	for _, b := range all {
		if len(axis) == 0 || b != axis[len(axis)-1] {
			axis = append(axis, b)
		}
	}
	return axis
}

// ReferenceSegment counts the entries of axis that are ≤ lambda, one by one.
func ReferenceSegment(axis []float64, lambda float64) int {
	seg := 0
	for _, b := range axis {
		if b <= lambda {
			seg++
		}
	}
	return seg
}
