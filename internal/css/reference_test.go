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
