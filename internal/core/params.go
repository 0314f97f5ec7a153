// Package core implements the paper's contribution: the √3
// dual-approximation for scheduling independent monotone malleable tasks
// (Mounié, Rapine, Trystram, SPAA 1999) and the binary-search driver that
// turns it into a (√3+ε)-approximation.
//
// The three constructions of the dual step are exported individually —
// MalleableList (§3.1), CanonicalList (§3.2) and TwoShelf (§4) — so the
// experiment harness can exercise each branch on its own; the dual step
// (DualProber) combines them with the paper's branch conditions and
// certified rejections, and Approximate runs the dichotomic search of §2.2.
package core

import "math"

// The paper's constants; each comment names the theorem or section that
// fixes it.
var (
	// Rho is the worst-case guarantee √3 of Theorem 3.
	Rho = math.Sqrt(3)
	// Mu is the second-shelf length ρ−1 = √3−1 of the knapsack branch (§4).
	Mu = math.Sqrt(3) - 1
	// Theta is the canonical-list parameter ρ/2 = √3/2 (§3.2, appendix);
	// it is also the W/(mλ) threshold separating the two m ≥ 7 branches.
	Theta = math.Sqrt(3) / 2
)

// Params tunes the algorithm. The zero value is not valid; use
// DefaultParams.
type Params struct {
	// Rho is the dual guarantee target; the branch parameters derive from
	// it (μ = Rho−1, θ = Rho/2). Only Rho = √3 is backed by the paper's
	// proofs; the field exists for ablation experiments.
	Rho float64
	// M0 is the minimal processor count for the canonical-list branch's
	// Property 3 (appendix; 8 at θ = √3/2 after the paper's refinement).
	// Machines with fewer processors but more than SmallM use every
	// construction opportunistically.
	M0 int
	// SmallM is the largest m for which the malleable list algorithm's
	// guarantee 2−2/(m+1) already beats Rho (6 for ρ = √3).
	SmallM int
	// KnapsackEps is the ε of the knapsack approximation schemes used when
	// the exact DP would exceed MaxDPCells. Lemma 2 admits a constant ε*
	// depending only on μ; 1/20 is the paper's quoted value.
	KnapsackEps float64
	// MaxDPCells caps n·capacity of the exact knapsack DP before the
	// algorithm switches to the approximation schemes.
	MaxDPCells int
}

// DefaultParams returns the paper's configuration.
func DefaultParams() Params {
	return Params{
		Rho:         Rho,
		M0:          8,
		SmallM:      6,
		KnapsackEps: 0.05,
		MaxDPCells:  1 << 24,
	}
}

// mu returns the second-shelf length parameter ρ−1.
func (p Params) mu() float64 { return p.Rho - 1 }

// theta returns the list/knapsack threshold parameter ρ/2.
func (p Params) theta() float64 { return p.Rho / 2 }

// RhoList returns the malleable list guarantee 2 − 2/(m+1) of Theorem 1.
func RhoList(m int) float64 { return 2 - 2/float64(m+1) }
