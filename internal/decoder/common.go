package decoder

import (
	"fmt"
	"math"

	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/matching"
)

// Recover converts a panic unwinding through a decode call into an
// error carrying the panic message. Every Decode/DecodeWith entry point
// in this package defers it, so internal invariant panics (e.g.
// "matching: stuck without maxCardinality" from the blossom matcher)
// surface to callers as ordinary decode failures — which Monte-Carlo
// engines already count conservatively as logical errors — instead of
// killing a multi-hour sweep. Custom Decoder implementations may defer
// it the same way:
//
//	func (d *myDecoder) Decode(defects []int32) (corr []bool, err error) {
//		defer decoder.Recover(&err)
//		...
//	}
func Recover(err *error) {
	if r := recover(); r != nil {
		if e, ok := r.(error); ok {
			*err = fmt.Errorf("decoder: recovered panic: %w", e)
			return
		}
		*err = fmt.Errorf("decoder: recovered panic: %v", r)
	}
}

// annotateErr wraps a non-nil decode error with the decoder's identity
// (kind and configuration), so an error counted by a sweep thousands of
// shots deep still says which decoder in which configuration produced
// it. Each decoder defers it BEFORE its Recover defer — defers run
// last-in-first-out, so Recover converts the panic to an error first
// and annotateErr then tags it.
//
//fpnvet:coldpath error-path only: a nil *err returns before any formatting
func annotateErr(id string, err *error) {
	if *err != nil {
		*err = fmt.Errorf("%s: %w", id, *err)
	}
}

// matchEdge is a float-weighted edge of a per-shot matching instance.
type matchEdge struct {
	u, v int
	w    float64
}

// applyEmptyClass handles the empty-syndrome equivalence class: when the
// observed flags are explained strictly better by one of its error
// members than by "no error" (whose flag difference is |F|), the
// member's Pauli frames are applied. This is how the flag protocol
// catches propagation errors that flip no parity check at all.
func applyEmptyClass(empty *dem.Class, flags *dem.FlagSet, correction []bool) {
	nFlags := flags.Len()
	if empty == nil || nFlags == 0 {
		return
	}
	rep, diff := empty.Select(flags)
	if diff < nFlags {
		for _, o := range rep.Obs {
			correction[o] = !correction[o]
		}
	}
}

// minWeightPerfectWS is minWeightPerfect drawing the quantized edge list
// and the blossom matcher's state from the scratch arena. The returned
// mate slice aliases the scratch.
func minWeightPerfectWS(sc *DecodeScratch, n int, edges []matchEdge) ([]int, error) {
	sc.qedges = sc.qedges[:0]
	for _, e := range edges {
		sc.qedges = append(sc.qedges, quantizeEdge(e))
	}
	return sc.match.MinWeightPerfect(n, sc.qedges)
}

func quantizeEdge(e matchEdge) matching.Edge {
	w := e.w
	if math.IsInf(w, 1) || w > 1e12 {
		w = 1e12
	}
	return matching.Edge{U: e.u, V: e.v, W: int64(w * weightScale)}
}
