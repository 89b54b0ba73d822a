// Package decoder implements the paper's two flag-aware decoders — the
// flagged MWPM decoder for (hyperbolic) surface codes (§VI-C) and the
// flagged Restriction decoder for (hyperbolic) color codes (§VI-D) —
// plus the prior-work baselines they are compared against in §VI-F: a
// plain MWPM decoder that ignores flag information (the PyMatching
// stand-in) and a Chamberland-style Restriction decoder that uses flags
// only inside the matching stage.
package decoder

import (
	"encoding/binary"
	"slices"

	"github.com/fpn/flagproxy/internal/dem"
)

// decompose splits hyperedges with more than atomMax syndrome bits into
// components that reuse existing small error footprints, so the
// components can live in a matching graph (the paper's
// hyperedge-to-clique translation, Figure 16(a), refined so Pauli frames
// stay consistent). For MWPM decoding atomMax is 2; the Restriction
// decoder uses atomMax 3 so that data-like one-per-color triples stay
// intact. Events with footprints larger than maxSize are dropped (rare
// high-order coincidences).
func decompose(events []dem.ProjEvent, maxSize int) []dem.ProjEvent {
	return decomposeAtoms(events, 2, maxSize)
}

func decomposeAtoms(events []dem.ProjEvent, atomMax, maxSize int) []dem.ProjEvent {
	// Index existing footprints of size ≤ atomMax by the observables of
	// their first flagless exemplar, or else of their first exemplar.
	var atoms atomIndex
	for _, flagged := range [2]bool{false, true} {
		for _, ev := range events {
			if len(ev.Dets) == 0 || len(ev.Dets) > atomMax || (len(ev.Flags) > 0) != flagged {
				continue
			}
			atoms.add(ev.Dets, ev.Obs)
		}
	}
	out := make([]dem.ProjEvent, 0, len(events))
	for _, ev := range events {
		if len(ev.Dets) <= atomMax {
			out = append(out, ev)
			continue
		}
		if len(ev.Dets) > maxSize {
			continue
		}
		parts := matchDecomposition(ev.Dets, atomMax, &atoms)
		if parts == nil {
			// Fallback: consecutive pairs in sorted order.
			for i := 0; i+1 < len(ev.Dets); i += 2 {
				parts = append(parts, []int{ev.Dets[i], ev.Dets[i+1]})
			}
			if len(ev.Dets)%2 == 1 {
				parts = append(parts, []int{ev.Dets[len(ev.Dets)-1]})
			}
		}
		// Distribute observables: components inherit the obs of their
		// existing footprint; any residual lands on the first component so
		// the total stays equal to the event's obs.
		compObs := make([][]int, len(parts))
		extra := ev.Obs
		for i, part := range parts {
			compObs[i], _ = atoms.lookup(part)
			extra = symDiff(extra, compObs[i])
		}
		for i, part := range parts {
			obs := compObs[i]
			if i == 0 {
				obs = symDiff(obs, extra)
			}
			out = append(out, dem.ProjEvent{
				Dets:  append([]int(nil), part...),
				Flags: ev.Flags,
				Obs:   append([]int(nil), obs...),
				P:     ev.P,
			})
		}
	}
	return out
}

// atomIndex maps each registered atom, a sorted detector footprint, to
// the observables of its exemplar.
type atomIndex struct {
	keys dem.Interner
	obs  [][]int // by atom id
	key  []byte
}

// add registers dets with observables obs unless dets is registered.
func (a *atomIndex) add(dets, obs []int) {
	if _, fresh := a.keys.Intern(a.keyOf(dets)); fresh {
		a.obs = append(a.obs, obs)
	}
}

// lookup returns the observables of atom dets, or false if dets is no
// registered atom.
func (a *atomIndex) lookup(dets []int) ([]int, bool) {
	id, ok := a.keys.Lookup(a.keyOf(dets))
	if !ok {
		return nil, false
	}
	return a.obs[id], true
}

// keyOf encodes dets, each id as four little-endian bytes, into the
// index's reused key buffer.
func (a *atomIndex) keyOf(dets []int) []byte {
	a.key = a.key[:0]
	for _, d := range dets {
		a.key = binary.LittleEndian.AppendUint32(a.key, uint32(d))
	}
	return a.key
}

// matchDecomposition searches for a partition of dets into registered
// atoms of size ≤ atomMax, preferring larger atoms first so that
// data-like triples beat pair splits.
func matchDecomposition(dets []int, atomMax int, atoms *atomIndex) [][]int {
	var parts [][]int
	used := make([]bool, len(dets))
	atom := make([]int, 0, atomMax)
	var rec func() bool
	rec = func() bool {
		first := -1
		for i, u := range used {
			if !u {
				first = i
				break
			}
		}
		if first < 0 {
			return true
		}
		used[first] = true
		// Try atoms from largest to smallest containing dets[first].
		var free []int
		for j := first + 1; j < len(dets); j++ {
			if !used[j] {
				free = append(free, j)
			}
		}
		for size := atomMax; size >= 1; size-- {
			if size == 1 {
				if _, ok := atoms.lookup(dets[first : first+1]); ok {
					parts = append(parts, []int{dets[first]})
					if rec() {
						return true
					}
					parts = parts[:len(parts)-1]
				}
				continue
			}
			// Choose size-1 companions from free.
			idx := make([]int, size-1)
			var choose func(pos, start int) bool
			choose = func(pos, start int) bool {
				if pos == size-1 {
					atom = append(atom[:0], dets[first])
					for _, fi := range idx {
						atom = append(atom, dets[fi])
					}
					slices.Sort(atom)
					if _, ok := atoms.lookup(atom); !ok {
						return false
					}
					for _, fi := range idx {
						used[fi] = true
					}
					parts = append(parts, slices.Clone(atom))
					if rec() {
						return true
					}
					parts = parts[:len(parts)-1]
					for _, fi := range idx {
						used[fi] = false
					}
					return false
				}
				for k := start; k < len(free); k++ {
					idx[pos] = free[k]
					if choose(pos+1, k+1) {
						return true
					}
				}
				return false
			}
			if choose(0, 0) {
				return true
			}
		}
		used[first] = false
		return false
	}
	if rec() {
		return parts
	}
	return nil
}

// symDiff returns the symmetric difference of two ascending id lists,
// ascending.
func symDiff(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			a, b = a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}
