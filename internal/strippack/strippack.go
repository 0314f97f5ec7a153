// Package strippack implements two-dimensional strip packing of rigid
// parallel tasks: rectangles of integral width (processors) and real height
// (time) packed into a strip of integral width m. The paper reduces the
// non-malleable scheduling phase of two-phase methods to exactly this
// problem (§1, references [2,5,17]).
//
// Provided packers:
//   - NFDH and FFDH, the level algorithms of Coffman, Garey, Johnson and
//     Tarjan [5], with their classical height bounds
//     NFDH ≤ 2·A/m + hmax and FFDH ≤ 1.7·A/m + hmax;
//   - BLD, a skyline bottom-left-decreasing heuristic with no worst-case
//     bound but strong average behaviour.
//
// Steinberg's absolute-2 algorithm [17] is deliberately not implemented;
// the factor-2 baseline is obtained with list scheduling in package rigid
// instead.
package strippack

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Rect is a rigid job: Width processors for Height time units.
type Rect struct {
	Width  int
	Height float64
}

// Pos places rectangle i at processors [X, X+Width) starting at time Y.
type Pos struct {
	X int
	Y float64
}

// ErrBadRect is the typed rejection of a malformed rectangle: width outside
// [1, m] or height that is negative, NaN or +Inf. The packers return it (not
// a panic) so hostile rects reaching them from served input fail like
// instance.Check does — a typed error the caller can map to a 400.
var ErrBadRect = errors.New("strippack: bad rect")

func checkWidths(rects []Rect, m int) error {
	for i, r := range rects {
		if r.Width < 1 || r.Width > m {
			return fmt.Errorf("%w: rect %d width %d outside strip of %d", ErrBadRect, i, r.Width, m)
		}
		// !(h >= 0) also catches NaN; say so instead of calling NaN "negative".
		if !(r.Height >= 0) || math.IsInf(r.Height, 1) {
			return fmt.Errorf("%w: rect %d has non-finite or negative height %v", ErrBadRect, i, r.Height)
		}
	}
	return nil
}

func byDecreasingHeight(rects []Rect) []int {
	order := make([]int, len(rects))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rects[order[a]].Height > rects[order[b]].Height })
	return order
}

// NFDH packs with Next Fit Decreasing Height: rectangles sorted by
// non-increasing height fill the current level left to right; when one does
// not fit the level closes for good and a new level opens on top of it.
// Returns the positions and the used height, or ErrBadRect for malformed
// input.
func NFDH(rects []Rect, m int) ([]Pos, float64, error) {
	if err := checkWidths(rects, m); err != nil {
		return nil, 0, err
	}
	pos := make([]Pos, len(rects))
	y, levelH, x := 0.0, 0.0, 0
	for k, i := range byDecreasingHeight(rects) {
		r := rects[i]
		if k == 0 {
			levelH = r.Height
		}
		if x+r.Width > m { // close the level
			y += levelH
			levelH = r.Height
			x = 0
		}
		pos[i] = Pos{X: x, Y: y}
		x += r.Width
	}
	if len(rects) == 0 {
		return pos, 0, nil
	}
	return pos, y + levelH, nil
}

// FFDH packs with First Fit Decreasing Height: like NFDH but every open
// level is tried in bottom-to-top order before a new one opens.
func FFDH(rects []Rect, m int) ([]Pos, float64, error) {
	if err := checkWidths(rects, m); err != nil {
		return nil, 0, err
	}
	pos := make([]Pos, len(rects))
	type level struct {
		y, h float64
		x    int
	}
	var levels []level
	for _, i := range byDecreasingHeight(rects) {
		r := rects[i]
		placed := false
		for l := range levels {
			if levels[l].x+r.Width <= m {
				pos[i] = Pos{X: levels[l].x, Y: levels[l].y}
				levels[l].x += r.Width
				placed = true
				break
			}
		}
		if !placed {
			y := 0.0
			if len(levels) > 0 {
				top := levels[len(levels)-1]
				y = top.y + top.h
			}
			levels = append(levels, level{y: y, h: r.Height, x: r.Width})
			pos[i] = Pos{X: 0, Y: y}
		}
	}
	if len(levels) == 0 {
		return pos, 0, nil
	}
	top := levels[len(levels)-1]
	return pos, top.y + top.h, nil
}

// BLD packs with a skyline bottom-left-decreasing heuristic: rectangles in
// non-increasing height order are placed at the lowest position where a
// block of Width consecutive processors is free, leftmost among ties. It
// has no worst-case guarantee; empirically FFDH dominates it on
// height-sorted workloads (shelves waste less than skyline burial), so the
// baselines use FFDH by default and BLD as a diversity packer.
func BLD(rects []Rect, m int) ([]Pos, float64, error) {
	if err := checkWidths(rects, m); err != nil {
		return nil, 0, err
	}
	pos := make([]Pos, len(rects))
	sky := make([]float64, m) // current top per processor
	var used float64
	for _, i := range byDecreasingHeight(rects) {
		r := rects[i]
		bestX, bestY := 0, -1.0
		for x := 0; x+r.Width <= m; x++ {
			y := 0.0
			for j := x; j < x+r.Width; j++ {
				if sky[j] > y {
					y = sky[j]
				}
			}
			if bestY < 0 || y < bestY {
				bestX, bestY = x, y
			}
		}
		pos[i] = Pos{X: bestX, Y: bestY}
		for j := bestX; j < bestX+r.Width; j++ {
			sky[j] = bestY + r.Height
		}
		if bestY+r.Height > used {
			used = bestY + r.Height
		}
	}
	return pos, used, nil
}

// Validate checks that the packing keeps every rectangle inside the strip,
// below the reported height, and pairwise non-overlapping. Intended for
// tests and for defence-in-depth in the baselines.
func Validate(rects []Rect, pos []Pos, m int, height float64) error {
	if len(rects) != len(pos) {
		return fmt.Errorf("strippack: %d rects but %d positions", len(rects), len(pos))
	}
	const eps = 1e-9
	for i, r := range rects {
		p := pos[i]
		if p.X < 0 || p.X+r.Width > m {
			return fmt.Errorf("strippack: rect %d at x=%d width %d outside strip %d", i, p.X, r.Width, m)
		}
		if p.Y < -eps || p.Y+r.Height > height+eps {
			return fmt.Errorf("strippack: rect %d at y=%v height %v above strip height %v", i, p.Y, r.Height, height)
		}
		for j := i + 1; j < len(rects); j++ {
			q, s := pos[j], rects[j]
			xOverlap := p.X < q.X+s.Width && q.X < p.X+r.Width
			yOverlap := p.Y < q.Y+s.Height-eps && q.Y < p.Y+r.Height-eps
			if xOverlap && yOverlap && r.Height > 0 && s.Height > 0 {
				return fmt.Errorf("strippack: rects %d and %d overlap", i, j)
			}
		}
	}
	return nil
}
