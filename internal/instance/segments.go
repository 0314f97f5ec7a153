package instance

import (
	"slices"
	"sort"
)

// SegmentCap bounds what one Segments holds — entries and recorded
// verdicts: a new one arriving at the cap clears the index wholesale first,
// bounding memory and how long evicted tables stay referenced. A search
// probes a handful of allotments.
const SegmentCap = 512

// Segments is the λ-range index of canonical allotments: per compiled
// instance and caller tag (0 for the dual search, the graph's edge hash for
// the DAG solver), the allotments γ(λ) seen so far, each with the tables
// its caller derived from it (V).
//
// The key is the allotment, named by Σ_i γ_i: every γ_i is non-increasing
// in λ (Compiled.Gamma), so the vectors met along the λ-axis are totally
// ordered componentwise and two with equal sums are equal. A (tables, tag)
// pair's entries are kept in ascending deadline order — strictly
// descending sum — each with the range [Lo, Hi] of deadlines seen to
// produce it. A deadline inside a range is a hit with no Gamma call:
// monotonicity sandwiches its γ between two equal ones. Otherwise γ is
// staged, between two entries only for the tasks they disagree on (the
// same sandwich); a sum equal to a neighbour's widens its range, any other
// becomes a new entry. A deadline some task cannot meet gets the shared
// verdict entry; the pair only records that it met one.
//
// Evicted entries (Gamma and payload kept) and emptied lists are recycled:
// an entry a caller holds stays its own as long as no Drop and no clear at
// the cap runs, so a caller holding an entry across n lookups, its own
// included, calls Reserve(n) before the first and no Drop until it lets
// go. Both recycle points run before an entry is handed out. Lookup
// reports such an entry fresh, and the caller must then (re)fill V; it is
// the same pointer under another allotment, so whatever a caller tagged
// with it dies through V there.
//
// Not safe for concurrent use; the zero value is ready to use.
type Segments[V any] struct {
	lists    map[segKey]segList[V]
	total    int // entries
	verdicts int // lists whose verdict bit is set

	freeEntries []*Segment[V]
	freeLists   [][]*Segment[V]

	stage   []int      // γ of a deadline outside every observed range
	verdict Segment[V] // the answer for a deadline some task cannot meet
	staged  int
}

type segKey struct {
	c   *Compiled
	tag uint64
}

// segList is one (tables, tag) pair's range list and verdict bit.
type segList[V any] struct {
	entries []*Segment[V]
	verdict bool
}

// Segment is one allotment's entry in a Segments.
type Segment[V any] struct {
	Lo, Hi  float64 // deadlines observed to produce Gamma, and so everything between
	Sum     int     // Σ Gamma, the key
	OK      bool    // the allotment exists; when not, Slowest is the first task that cannot meet the deadline
	Slowest int
	Gamma   []int
	Work    float64 // Σ_i Work(i, Gamma[i]), summed in task order
	Val     V
}

// SegmentStats is what a Segments holds: entries and their lists, evicted
// ones awaiting reuse, and the lookups that staged γ.
type SegmentStats struct{ Entries, Lists, FreeEntries, FreeLists, Staged int }

func (s *Segments[V]) Stats() SegmentStats {
	return SegmentStats{s.total, len(s.lists), len(s.freeEntries), len(s.freeLists), s.staged}
}

// Ranges returns the ascending range list of (c, tag); it aliases the index.
func (s *Segments[V]) Ranges(c *Compiled, tag uint64) []*Segment[V] {
	return s.lists[segKey{c, tag}].entries
}

// Lookup returns the entry of λ's canonical allotment under (c, tag), and
// whether it is fresh. A deadline some task cannot meet gets the verdict
// entry (OK false, Slowest set), fresh on its first lookup under (c, tag).
func (s *Segments[V]) Lookup(c *Compiled, tag uint64, lambda float64) (e *Segment[V], fresh bool) {
	if s.lists == nil {
		s.lists = make(map[segKey]segList[V])
	}
	key := segKey{c, tag}
	l := s.lists[key]
	list := l.entries
	// The first range not wholly below λ is the only one that can hold it.
	k := sort.Search(len(list), func(j int) bool { return list[j].Hi >= lambda })
	if k < len(list) && list[k].Lo <= lambda {
		return list[k], false
	}

	s.staged++
	var below, above []int
	if k > 0 && k < len(list) {
		below, above = list[k-1].Gamma, list[k].Gamma
	}
	sum, slowest := c.stageGamma(lambda, &s.stage, below, above)
	switch {
	case slowest >= 0:
		s.verdict.Slowest = slowest
		if l.verdict {
			return &s.verdict, false
		}
	case k > 0 && list[k-1].Sum == sum:
		list[k-1].Hi = lambda
		return list[k-1], false
	case k < len(list) && list[k].Sum == sum:
		list[k].Lo = lambda
		return list[k], false
	}

	// Something new to hold: make room first.
	if s.total+s.verdicts >= SegmentCap {
		s.Drop(nil)
		l, list, k = segList[V]{}, nil, 0
	}
	if slowest >= 0 {
		l.verdict = true
		s.verdicts++
		s.lists[key] = l
		return &s.verdict, true
	}
	if f := len(s.freeEntries); f > 0 {
		e, s.freeEntries = s.freeEntries[f-1], s.freeEntries[:f-1]
	} else {
		e = &Segment[V]{}
	}
	e.Lo, e.Hi, e.Sum, e.OK, e.Slowest = lambda, lambda, sum, true, -1
	e.Gamma = append(e.Gamma[:0], s.stage...)
	e.Work = 0
	for i, g := range e.Gamma { // in task order, as every sum of works is taken
		e.Work += c.Work(i, g)
	}
	if list == nil {
		if f := len(s.freeLists); f > 0 {
			list, s.freeLists = s.freeLists[f-1], s.freeLists[:f-1]
		} else {
			list = make([]*Segment[V], 0, 16) // more allotments than a search visits
		}
	}
	l.entries = slices.Insert(list, k, e)
	s.lists[key] = l
	s.total++
	return e, true
}

// Reserve makes room for n new entries or verdicts, clearing the index
// wholesale now when they would not fit: the next n lookups then never
// reach the clear at the cap, so every entry they or the caller hold stays
// in the index.
func (s *Segments[V]) Reserve(n int) {
	if s.total+s.verdicts+n > SegmentCap {
		s.Drop(nil)
	}
}

// Drop evicts the entries of c under every tag — of every instance when c
// is nil — for reuse.
func (s *Segments[V]) Drop(c *Compiled) {
	for key, l := range s.lists {
		if c != nil && key.c != c {
			continue
		}
		s.freeEntries = append(s.freeEntries, l.entries...)
		s.total -= len(l.entries)
		if l.verdict {
			s.verdicts--
		}
		if l.entries != nil {
			clear(l.entries)
			s.freeLists = append(s.freeLists, l.entries[:0])
		}
		delete(s.lists, key)
	}
}

// stageGamma writes γ(λ) into *buf and returns Σγ, or names the first task
// that cannot meet λ in slowest (−1 when the allotment exists). λ is
// resolved once; only the tasks on which below and above — when non-nil,
// the vectors of a smaller and a larger deadline — differ search their
// time rows.
func (c *Compiled) stageGamma(lambda float64, buf *[]int, below, above []int) (sum, slowest int) {
	gamma := append((*buf)[:0], make([]int, c.N())...)
	*buf = gamma
	b := c.Bound(lambda)
	for i := range gamma {
		if below != nil && below[i] == above[i] {
			gamma[i] = below[i]
		} else if g, ok := c.GammaAt(i, b); ok {
			gamma[i] = g
		} else {
			return 0, i
		}
		sum += gamma[i]
	}
	return sum, -1
}
