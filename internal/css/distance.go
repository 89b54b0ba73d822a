package css

import (
	"github.com/fpn/flagproxy/internal/gf2"
)

// DistanceResult is the outcome of a distance computation. LowerBound is
// the largest weight w such that no logical of weight ≤ w exists. D is
// the minimum logical weight when Exact is true, and otherwise an upper
// bound on it (0 only when there is no logical at all).
type DistanceResult struct {
	D          int
	Exact      bool
	LowerBound int
}

// distanceBudget caps the search nodes MinLogical spends on one basis.
// The largest need in the catalogue, rejected candidates included, is
// hycc-4_6-336's 973,023 nodes per basis (d=8). 2^25 is 34 times that,
// about 0.6 s at the ≈18 ns a node takes on a 2-vCPU Xeon VM: room for
// every catalogue code, while a code of much larger distance still
// returns promptly with bounds.
const distanceBudget = 1 << 25

// MinLogical returns the minimum weight of a vector in
// ker(hKer) \ rowspace(hMod): the Z distance for (HX, HZ), the X distance
// for (HZ, HX).
//
// The search deepens over the weight w = 1, 2, …. For each smallest qubit
// q it grows a support S from {q}, branching only on the qubits > q, not
// yet in S, of the lowest-index check S violates, and a branch ends at its
// first kernel element: a logical has weight w, a stabilizer prunes the
// branch. That is exact: let L be a minimum-weight logical and q its
// smallest qubit. Every check S ⊊ L violates holds a qubit of L \ S, which
// is > q, so L's branch can always follow L; and no S ⊊ L is in the
// kernel, since S or L+S would then be a lighter logical. So the branch
// reaches L itself, at layer |L|.
//
// The search is exponential in the distance. If it runs out of
// distanceBudget nodes, the result is inexact: LowerBound is the last
// complete layer and D the weight of the lightest vector of the logical
// basis New chooses for the code (LogicalZ for (HX, HZ), LogicalX for
// (HZ, HX)).
func MinLogical(hKer, hMod *gf2.Matrix) DistanceResult {
	return minLogical(hKer, hMod, distanceBudget)
}

// minLogical is MinLogical with the node budget as a parameter.
func minLogical(hKer, hMod *gf2.Matrix, budget int64) DistanceResult {
	n := hKer.Cols()
	mod := gf2.RowReduce(hMod)
	k := n - gf2.Rank(hKer) - mod.Rank
	if k <= 0 {
		return DistanceResult{}
	}
	kerT := hKer.Transpose() // row q = syndrome of single qubit q
	checks := make([][]int, hKer.Rows())
	for c := range checks {
		checks[c] = hKer.Row(c).Support()
	}
	syn := gf2.NewVec(hKer.Rows())
	inS := make([]bool, n)
	support := make([]int, 0, n)
	var nodes int64
	found := false

	add := func(q int) {
		syn.Xor(kerT.Row(q))
		inS[q] = true
		support = append(support, q)
	}
	remove := func() {
		q := support[len(support)-1]
		support = support[:len(support)-1]
		inS[q] = false
		syn.Xor(kerT.Row(q))
	}
	// grow explores the branch below S = support at layer w. It returns
	// true to end the whole search: a logical was found or the budget ran
	// out.
	var grow func(w int) bool
	grow = func(w int) bool {
		if nodes++; nodes > budget {
			return true
		}
		c := syn.First()
		if c < 0 {
			found = !mod.InRowSpace(gf2.VecFromSupport(n, support))
			return found
		}
		if len(support) == w {
			return false
		}
		for _, r := range checks[c] {
			if r <= support[0] || inS[r] {
				continue
			}
			add(r)
			stop := grow(w)
			remove()
			if stop {
				return true
			}
		}
		return false
	}

	for w := 1; ; w++ {
		for q := 0; q < n; q++ {
			add(q)
			stop := grow(w)
			remove()
			if stop {
				break
			}
		}
		if found {
			return DistanceResult{D: w, Exact: true, LowerBound: w - 1}
		}
		if nodes > budget {
			d := n
			for _, v := range logicalBasis(hKer, hMod, k) {
				d = min(d, v.Weight())
			}
			return DistanceResult{D: d, LowerBound: w - 1}
		}
	}
}

// ComputeDistances fills in DX/DZ (and their Exact flags) with MinLogical.
func (c *Code) ComputeDistances() {
	hx := c.CheckMatrix(X)
	hz := c.CheckMatrix(Z)
	// dZ: min weight of a Z logical = vector in ker(HX) \ row(HZ).
	dz := MinLogical(hx, hz)
	c.DZ, c.DZExact = dz.D, dz.Exact
	dx := MinLogical(hz, hx)
	c.DX, c.DXExact = dx.D, dx.Exact
}
