package decoder

// Fuzzing the hyperedge decomposition (decompose.go). matchDecomposition
// must always return either nil or an exact partition of the detector
// footprint into registered atoms, and decomposeAtoms must preserve the
// observable parity of every event it splits — the invariant the Pauli
// frame depends on.

import (
	"sort"
	"testing"

	"github.com/fpn/flagproxy/internal/dem"
)

// fuzzDecomposeInput decodes fuzz bytes into a footprint of nDets
// distinct detectors, an atom dictionary (each remaining byte is a
// bitmask selecting a subset of the footprint; subsets of size ≤
// atomMax register as atoms), and per-atom observables.
func fuzzDecomposeInput(data []byte) (dets []int, atomMax int, atomObs map[string][]int, atomEvents []dem.ProjEvent) {
	if len(data) < 2 {
		return nil, 0, nil, nil
	}
	nDets := 2 + int(data[0])%7 // 2..8
	atomMax = 1 + int(data[1])%3
	for i := 0; i < nDets; i++ {
		dets = append(dets, 3*i+1) // distinct, non-contiguous ids
	}
	atomObs = map[string][]int{}
	for bi, mask := range data[2:] {
		var atom []int
		for i := 0; i < nDets; i++ {
			if mask&(1<<i) != 0 {
				atom = append(atom, dets[i])
			}
		}
		if len(atom) == 0 || len(atom) > atomMax {
			continue
		}
		k := atomKey(atom)
		if _, dup := atomObs[k]; dup {
			continue
		}
		var obs []int
		if bi%2 == 0 {
			obs = []int{bi % 3}
		}
		atomObs[k] = obs
		atomEvents = append(atomEvents, dem.ProjEvent{Dets: atom, Obs: obs, P: 0.01})
	}
	return dets, atomMax, atomObs, atomEvents
}

func FuzzMatchDecomposition(f *testing.F) {
	f.Add([]byte{2, 1, 0b0011, 0b1100, 0b1111})    // 4 dets, pairs
	f.Add([]byte{4, 2, 0b000111, 0b111000})        // 6 dets, triples
	f.Add([]byte{6, 0, 0b01, 0b10, 0b100, 0b1000}) // singles only
	f.Add([]byte{3, 1, 0b10001, 0b01010, 0b00100}) // odd footprint
	f.Fuzz(func(t *testing.T, data []byte) {
		dets, atomMax, atomObs, atomEvents := fuzzDecomposeInput(data)
		if dets == nil {
			t.Skip()
		}
		parts := matchDecomposition(dets, atomMax, atomObs)
		if parts != nil {
			// Non-nil means a full partition into registered atoms.
			var flat []int
			for _, part := range parts {
				if len(part) == 0 || len(part) > atomMax {
					t.Fatalf("part %v exceeds atomMax %d", part, atomMax)
				}
				if _, ok := atomObs[atomKey(part)]; !ok {
					t.Fatalf("part %v is not a registered atom", part)
				}
				flat = append(flat, part...)
			}
			sort.Ints(flat)
			if len(flat) != len(dets) {
				t.Fatalf("partition covers %d of %d dets: %v", len(flat), len(dets), parts)
			}
			for i, d := range dets {
				if flat[i] != d {
					t.Fatalf("partition %v is not a partition of %v", parts, dets)
				}
			}
		}

		// decomposeAtoms must preserve total observable parity whether the
		// search succeeded or fell back to consecutive pairs.
		big := dem.ProjEvent{Dets: dets, Obs: []int{0, 2}, P: 0.02}
		events := append(append([]dem.ProjEvent(nil), atomEvents...), big)
		out := decomposeAtoms(events, atomMax, 16)
		if !sameParity(parityOf(out), parityOf(events)) {
			t.Fatalf("decomposeAtoms changed observable parity: in %v out %v", events, out)
		}
		for _, ev := range out {
			if len(ev.Dets) > atomMax && len(ev.Dets) > 2 {
				t.Fatalf("output event %v has footprint larger than atomMax %d and the pair fallback", ev, atomMax)
			}
		}
	})
}

// parityOf XORs every event's observable set into one parity vector.
func parityOf(events []dem.ProjEvent) map[int]bool {
	par := map[int]bool{}
	for _, ev := range events {
		for _, o := range ev.Obs {
			if par[o] {
				delete(par, o)
			} else {
				par[o] = true
			}
		}
	}
	return par
}

func sameParity(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for o := range a {
		if !b[o] {
			return false
		}
	}
	return true
}
