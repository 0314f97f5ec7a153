// Package packing implements the one-dimensional First Fit packing the
// paper uses (§4.1, reference [11], Johnson et al.) to stack small
// sequential tasks onto processors under a time deadline: FF(C, S) is the
// number of processors First Fit needs to pack the durations of S into bins
// of capacity C, the NumBins of (*Result).FirstFit.
//
// The only property the paper needs — and which we test — is: if
// FF(C, S) > 1 then the total size of S exceeds C·FF(C,S)/2.
package packing

import (
	"errors"
	"fmt"

	"malsched/internal/task"
)

// Result describes a 1-D packing: for every item, its bin and the offset at
// which it is stacked inside the bin.
type Result struct {
	// Bin[i] is the bin index of item i (bins are numbered from 0).
	Bin []int
	// Offset[i] is the accumulated size below item i inside its bin.
	Offset []float64
	// Loads holds the total size per bin; len(Loads) = number of bins.
	Loads []float64
}

// NumBins returns the number of bins used.
func (r Result) NumBins() int { return len(r.Loads) }

// ErrOversized reports an item larger than the bin capacity.
var ErrOversized = errors.New("packing: item larger than capacity")

// FirstFit packs the items in their given order, placing each into the
// lowest-indexed bin with residual capacity, opening a new bin when none
// fits. Comparisons use the module tolerance so an item may exactly fill a
// bin. It overwrites r with the packing, reusing the capacity of r's
// slices, so a caller packing same-sized inputs over and over (core's
// Scratch, twice per probe) allocates nothing. On error r's contents are
// unspecified.
func (r *Result) FirstFit(sizes []float64, capacity float64) error {
	if cap(r.Bin) < len(sizes) {
		r.Bin = make([]int, len(sizes))
	}
	if cap(r.Offset) < len(sizes) {
		r.Offset = make([]float64, len(sizes))
	}
	r.Bin, r.Offset, r.Loads = r.Bin[:len(sizes)], r.Offset[:len(sizes)], r.Loads[:0]
	for i, s := range sizes {
		if !task.Leq(s, capacity) {
			return fmt.Errorf("%w: item %d size %g, capacity %g", ErrOversized, i, s, capacity)
		}
		placed := false
		for b, load := range r.Loads {
			if task.Leq(load+s, capacity) {
				r.Bin[i] = b
				r.Offset[i] = load
				r.Loads[b] += s
				placed = true
				break
			}
		}
		if !placed {
			r.Bin[i] = len(r.Loads)
			r.Offset[i] = 0
			r.Loads = append(r.Loads, s)
		}
	}
	return nil
}
