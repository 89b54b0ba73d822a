package css

import "github.com/fpn/flagproxy/internal/gf2"

// NaiveLogicalBasis is the reference logicalBasis must agree with vector
// for vector: it row-reduces the whole span (stabilizer plus every
// logical chosen so far) again for each candidate.
func NaiveLogicalBasis(hKer, hMod *gf2.Matrix, k int) []gf2.Vec {
	ns := gf2.NullspaceBasis(hKer)
	mod := gf2.RowReduce(hMod)
	var logicals []gf2.Vec
	span := hMod.Clone()
	for _, v := range ns {
		if mod.InRowSpace(v) {
			continue
		}
		if gf2.RowReduce(span).InRowSpace(v) {
			continue
		}
		logicals = append(logicals, v)
		rows := make([]gf2.Vec, 0, span.Rows()+1)
		for i := 0; i < span.Rows(); i++ {
			rows = append(rows, span.Row(i))
		}
		span = gf2.MatrixFromRows(append(rows, v), hMod.Cols())
		if len(logicals) == k {
			break
		}
	}
	return logicals
}

// MinLogicalExact searches exhaustively for the minimum-weight vector in
// ker(hKer) \ rowspace(hMod) of weight at most wmax, subject to a budget
// of at most maxCombos enumeration steps. If the weight-w layer completes
// without exceeding the budget and finds a logical, the result is exact.
// It is the brute-force reference MinLogical is checked against.
func MinLogicalExact(hKer, hMod *gf2.Matrix, wmax int, maxCombos int64) DistanceResult {
	n := hKer.Cols()
	mod := gf2.RowReduce(hMod)
	kerT := hKer.Transpose() // row q = syndrome of single qubit q
	var budget int64
	support := make([]int, 0, wmax)
	syn := gf2.NewVec(hKer.Rows())
	found := false

	// search returns true to abort the whole enumeration (found a logical
	// at this weight, or budget exhausted).
	var search func(start, remaining int) bool
	search = func(start, remaining int) bool {
		if budget++; budget > maxCombos {
			return true
		}
		if remaining == 0 {
			if syn.IsZero() {
				v := gf2.VecFromSupport(n, support)
				if !mod.InRowSpace(v) {
					found = true
					return true
				}
			}
			return false
		}
		for q := start; q <= n-remaining; q++ {
			syn.Xor(kerT.Row(q))
			support = append(support, q)
			stop := search(q+1, remaining-1)
			support = support[:len(support)-1]
			syn.Xor(kerT.Row(q))
			if stop {
				return true
			}
		}
		return false
	}

	res := DistanceResult{}
	for w := 1; w <= wmax; w++ {
		found = false
		stopped := search(0, w)
		if found {
			return DistanceResult{D: w, Exact: true, LowerBound: w - 1}
		}
		if stopped {
			// Budget exhausted mid-layer: weight w not fully excluded.
			res.LowerBound = w - 1
			return res
		}
		res.LowerBound = w
	}
	return res
}
