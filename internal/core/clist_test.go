package core

import (
	"reflect"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/lowerbound"
	"malsched/internal/rigid"
	"malsched/internal/schedule"
	"malsched/internal/task"
)

// referenceCanonicalList is §3.2's list algorithm the plain way: a window
// search (rigid.Windower) for every task, no level-1 fast path, a fresh
// schedule. squeezed is the task the reallocation squeezed, -1 when it did
// not fire. The construction under test must equal it placement for
// placement.
func referenceCanonicalList(c *instance.Compiled, a Allotment, order []int, reallocate bool) (s *schedule.Schedule, squeezed int) {
	s = &schedule.Schedule{Algorithm: "canonical-list"}
	if reallocate {
		s.Algorithm = "canonical-list+realloc"
	}
	front := make([]float64, c.M())
	var wd rigid.Windower
	limit, checked, squeezed := c.M(), false, -1
	for _, i := range order {
		w := a.Gamma[i]
		if w > limit {
			w = limit
		}
		x, start := wd.Best(front[:limit], w)
		if reallocate && !checked && start > 0 {
			checked = true
			idle := 0
			for j := limit - 1; j >= 0 && front[j] == 0; j-- {
				idle++
			}
			half := (a.Gamma[i] + 1) / 2
			if half <= idle && half >= 1 && limit-half >= 1 {
				s.Placements = append(s.Placements, schedule.Placement{Task: i, Start: 0, Width: half, First: limit - half})
				limit -= half
				squeezed = i
				continue
			}
		}
		s.Placements = append(s.Placements, schedule.Placement{Task: i, Start: start, Width: w, First: x})
		for k := x; k < x+w; k++ {
			front[k] = start + c.Time(i, w)
		}
	}
	return s, squeezed
}

// zeroTimeInstance is hand-rolled around validation: two tasks whose
// two-processor time is 0, so at 1.5 ≤ λ < 2 they sit at the end of the
// canonical order with a zero-length placement that still fits level 1. The first one ends the
// level-1 fast path (its end is not > 0, the frontier does not move); the
// second must land on the same processors again, as the window search puts
// it, not to the right of the first.
func zeroTimeInstance() *instance.Instance {
	const m = 12
	zero := func(name string) task.Task {
		times := []float64{2, 1}
		tk, err := task.NewOwned(name, times)
		if err != nil {
			panic(err)
		}
		times[1] = 0 // behind NewOwned's back
		return tk
	}
	return &instance.Instance{Name: "zero-time", M: m, Tasks: []task.Task{
		task.Linear("a", 6, m),
		zero("z1"),
		task.Sequential("b", 1.5, m),
		zero("z2"),
		task.Linear("c", 3, m),
	}}
}

// The dual step runs the plain canonical list only after a fired
// reallocation. That deletes work instead of forking it only because an
// unfired reallocate=true pass is the plain list element for element — and
// the level-1 fast path may skip the window search only because it picks
// the window the search would.
func TestUnfiredReallocationIsThePlainList(t *testing.T) {
	sc := NewScratch()
	fired, unfired := 0, 0
	check := func(ctx string, in *instance.Instance, lambda float64) {
		t.Helper()
		c := instance.Compile(in)
		e := filled(&sc.seg, c, lambda)
		a := allotmentOf(e, lambda)
		if !a.OK {
			return
		}
		order := e.Val.sortedOrder(c, a, &sc.keys)
		var got [2]*schedule.Schedule // [0] plain, [1] with the reallocation
		didFire, squeezedTask := false, -1
		for k, realloc := range []bool{false, true} {
			d, f := canonicalListFromAllotment(c, a, order, realloc, sc)
			if f && !realloc {
				t.Fatalf("%s λ=%v: the plain list reports a fired reallocation", ctx, lambda)
			}
			got[k] = d.schedule()
			want, squeezed := referenceCanonicalList(c, a, order, realloc)
			didFire, squeezedTask = f, squeezed
			if !sameSchedule(got[k], want) {
				t.Fatalf("%s λ=%v realloc=%v: fast path and window search disagree\n got %+v\nwant %+v", ctx, lambda, realloc, got[k].Placements, want.Placements)
			}
			if f != (squeezed >= 0) {
				t.Fatalf("%s λ=%v: fired=%v but the reference squeezed task %d", ctx, lambda, f, squeezed)
			}
			if mk := got[k].Makespan(in); mk != d.makespan {
				t.Fatalf("%s λ=%v realloc=%v: draft makespan %v, schedule makespan %v", ctx, lambda, realloc, d.makespan, mk)
			}
		}
		if !didFire {
			unfired++
			if !reflect.DeepEqual(got[0].Placements, got[1].Placements) {
				t.Fatalf("%s λ=%v: unfired reallocation pass differs from the plain list", ctx, lambda)
			}
			return
		}
		fired++
		if reflect.DeepEqual(placementOf(got[0], squeezedTask), placementOf(got[1], squeezedTask)) {
			t.Fatalf("%s λ=%v: fired, yet task %d sits where the plain list puts it", ctx, lambda, squeezedTask)
		}
	}

	grid := []float64{0.6, 0.8, 0.9, 0.95, 1, 1.02, 1.05, 1.1, 1.2, 1.35, 1.5, 2, 3}
	for name, gen := range instance.Families() {
		for seed := int64(0); seed < 3; seed++ {
			for _, shape := range [][2]int{{24, 16}, {40, 64}, {30, 8}} {
				in := gen(seed, shape[0], shape[1])
				lb := lowerbound.Trivial(in)
				for _, f := range grid {
					check(name, in, lb*f)
				}
			}
		}
	}
	if fired == 0 || unfired == 0 {
		t.Fatalf("grid is one-sided: %d fired, %d unfired", fired, unfired)
	}
	zt := zeroTimeInstance()
	for _, lambda := range []float64{1.5, 1.7, 1.9, 2, 3} {
		check(zt.Name, zt, lambda)
	}
}

func placementOf(s *schedule.Schedule, taskID int) schedule.Placement {
	for _, p := range s.Placements {
		if p.Task == taskID {
			return p
		}
	}
	panic("task not placed")
}
