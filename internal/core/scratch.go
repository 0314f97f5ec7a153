package core

import (
	"sync"

	"malsched/internal/instance"
	"malsched/internal/knapsack"
	"malsched/internal/packing"
	"malsched/internal/rigid"
	"malsched/internal/schedule"
)

// Scratch is the reusable working memory of the dual-approximation hot
// path. One dichotomic search performs tens of probes, and a batch engine
// performs thousands; every probe needs the same-shaped buffers (canonical
// allotment, sort orders, list frontiers, the §4 partition and its knapsack
// tables). A Scratch carries them across probes — and across instances —
// so the hot path stops re-allocating them.
//
// The Scratch additionally carries a λ-range index (instance.Segments,
// seg), so a probe whose deadline yields a previously seen allotment reuses
// its total work, by-decreasing-time order and prefix area wholesale. Both
// deadlines a probe reads γ at — λ for §3.2's canonical list and
// (2−2/(m+1))·λ for §3.1's malleable list — share it: γ is one monotone
// function of the deadline, so a relaxed deadline lands between entries
// that probes put there, and only the tasks they disagree on are staged.
//
// The constructions also build their schedules here: each writes its
// placements into a Scratch-owned buffer (every construction places each
// task exactly once, so a buffer of capacity n never grows) and reports the
// makespan it accumulated on the way, as a draft. The two list
// constructions read the allotment alone, so their drafts stay where they
// were built (clist, mlist), tagged with the segment-cache entry that built
// them: a probe landing on the tagged entry builds only the two-shelf
// draft, which reads λ itself. One hot buffer per construction, not one per
// entry: an entry recycled hundreds of searches later is cold memory.
// dualStep hands its winner back inside the Scratch (won); owned is the
// single place it becomes a caller-owned Schedule — once per probe for a
// Prober's caller, once per search for the default prober, whose search
// keeps its incumbent in best.
//
// A Scratch is not safe for concurrent use: pool one per worker (the
// engine's worker pool does exactly that). Results handed to callers never
// alias the Scratch (that one copy), so retaining a returned schedule while
// reusing the Scratch is safe.
//
// The zero value is ready to use.
type Scratch struct {
	seq       []int                // malleable-list sequential tail
	release   []float64            // malleable-list per-processor release times, advanced in place by the LPT
	durations []float64            // malleable-list LPT durations
	lptProc   []int                // malleable-list LPT processor per sequential task
	lptStart  []float64            // malleable-list LPT start per sequential task
	front     []float64            // canonical-list frontier
	sizes     []float64            // partition TS sizes
	tsizes    []float64            // trivial-solution TS sizes
	tpack     packing.Result       // trivial-solution First-Fit of TS under deadline λ
	moved     []int                // two-shelf: the knapsack's selection as task ids
	inMoved   []bool               // two-shelf: membership of moved, by task id
	mlist     draft                // malleable-list draft of mlistOf's allotment, before the deadline check
	clist     [2]draft             // canonical-list drafts of clistOf's allotment: [0] plain (unbuilt unless [1] fired), [1] with the reallocation
	mlistOf   *segEntry            // the seg entry that built mlist, trusted only while its mlisted flag stands
	clistOf   *segEntry            // the seg entry that built the clist pair, trusted only while its clisted flag stands
	shelf     []schedule.Placement // two-shelf / trivial-solution draft
	won       schedule.Schedule    // the last accepted probe's winner, aliasing that draft's buffer
	best      schedule.Schedule    // incumbent of a default sequential search, copied from won
	kcols     knapsack.Cols        // knapsack columns (d_i, γ_i, task id), delta-synced across probes
	win       rigid.Windower       // canonical-list window search buffer
	part      Partition
	ks        knapsack.Solver
	keys      []float64 // by-decreasing-time sort keys, by task id
	seg       segState  // λ-segment cache of both deadlines
	aux       AuxCache  // opaque per-worker cache of other solver families

	clistBuilds, mlistBuilds int // canonical pairs and malleable lists built; tests count reuse with them
}

// draft is a construction's output while it still lives in the Scratch:
// placements aliases one of the Scratch's placement buffers and is
// overwritten by the next probe, makespan is the latest completion time
// accumulated by place (bit-equal to Schedule.Makespan of the copy: the
// compiled time matrix holds the tasks' own values). The zero draft means
// the construction produced no schedule.
type draft struct {
	algorithm  string
	placements []schedule.Placement
	makespan   float64
}

// built reports whether the construction produced a schedule.
func (d draft) built() bool { return d.algorithm != "" }

// place appends one placement and folds its completion time, which it
// returns, into the makespan.
func (d *draft) place(c *instance.Compiled, task int, start float64, width, first int) (end float64) {
	d.placements = append(d.placements, schedule.Placement{Task: task, Start: start, Width: width, First: first})
	end = start + c.Time(task, width)
	if end > d.makespan {
		d.makespan = end
	}
	return end
}

// schedule copies the draft out of the Scratch into a caller-owned
// Schedule (nil for an unbuilt draft).
func (d draft) schedule() *schedule.Schedule {
	if !d.built() {
		return nil
	}
	return owned(&schedule.Schedule{Algorithm: d.algorithm, Placements: d.placements})
}

// owned copies a schedule out of the Scratch into one the caller owns (nil
// stays nil): the only place the constructions and the search allocate.
func owned(s *schedule.Schedule) *schedule.Schedule {
	if s == nil {
		return nil
	}
	return &schedule.Schedule{
		Algorithm:  s.Algorithm,
		Placements: append([]schedule.Placement(nil), s.Placements...),
	}
}

// placementsBuf returns *buf emptied, with room for n placements.
func placementsBuf(buf *[]schedule.Placement, n int) []schedule.Placement {
	if cap(*buf) < n {
		*buf = make([]schedule.Placement, 0, n)
	}
	return (*buf)[:0]
}

// NewScratch returns an empty Scratch; buffers grow on demand.
func NewScratch() *Scratch { return &Scratch{} }

// AuxCache is an opaque cache slot other solver families attach to a
// Scratch so their per-worker state rides the same pooling and lineage
// pinning as the dual search's buffers (the precedence solver keeps its
// DAG λ-segment cache here). The only contract is eviction: DropCompiled
// must forget every entry derived from the given compiled tables, so a
// lineage that retires its previous residual's tables releases them from
// every cache the Scratch carries.
type AuxCache interface {
	DropCompiled(*instance.Compiled)
}

// Aux returns the attached auxiliary cache, nil when none was set.
func (sc *Scratch) Aux() AuxCache { return sc.aux }

// SetAux attaches an auxiliary cache to the Scratch. Like the rest of the
// Scratch it must only be touched by one worker at a time.
func (sc *Scratch) SetAux(a AuxCache) { sc.aux = a }

// scratchPool backs the exported one-shot constructions (MalleableList,
// CanonicalList, TwoShelf): instead of growing a fresh Scratch per call
// they borrow a pooled one, so casual callers stop thrashing the
// allocator. Results returned by those helpers never alias the pool: each
// copies its draft out (draft.schedule) before the Scratch goes back.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

func getScratch() *Scratch { return scratchPool.Get().(*Scratch) }

func putScratch(sc *Scratch) { scratchPool.Put(sc) }

// oneShot runs f on privately compiled tables and a pooled Scratch, and
// drops those tables from the Scratch's segment caches before it returns to
// the pool: nobody can ever look them up again, so leaving them would only
// pin dead tables until the cache's wholesale clear.
func oneShot[T any](in *instance.Instance, f func(*instance.Compiled, *Scratch) T) T {
	c := instance.Compile(in)
	sc := getScratch()
	defer func() {
		sc.DropCompiled(c)
		putScratch(sc)
	}()
	return f(c, sc)
}

// intsBuf returns *buf resized to n without zeroing (callers overwrite every
// element).
func intsBuf(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// floatsBuf returns *buf resized to n, zeroed.
func floatsBuf(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return *buf
}
