package decoder

// Fuzzing the hyperedge decomposition (decompose.go). matchDecomposition
// must always return either nil or an exact partition of the detector
// footprint into registered atoms, and decomposeAtoms must preserve the
// observable parity of every event it splits — the invariant the Pauli
// frame depends on. Both must agree exactly with the map-based
// references in naiveref_test.go.

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/fpn/flagproxy/internal/color"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/surface"
)

// fuzzDecomposeInput decodes fuzz bytes into a footprint of nDets
// distinct detectors, an atom dictionary (each remaining byte is a
// bitmask selecting a subset of the footprint; subsets of size ≤
// atomMax register as atoms), and per-atom observables. The dictionary
// comes both as an atomIndex and as the references' string-keyed map.
func fuzzDecomposeInput(data []byte) (dets []int, atomMax int, atoms *atomIndex, atomObs map[string][]int, atomEvents []dem.ProjEvent) {
	if len(data) < 2 {
		return nil, 0, nil, nil, nil
	}
	nDets := 2 + int(data[0])%7 // 2..8
	atomMax = 1 + int(data[1])%3
	for i := 0; i < nDets; i++ {
		dets = append(dets, 3*i+1) // distinct, non-contiguous ids
	}
	atoms = &atomIndex{}
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
		k := refAtomKey(atom)
		if _, dup := atomObs[k]; dup {
			continue
		}
		var obs []int
		if bi%2 == 0 {
			obs = []int{bi % 3}
		}
		atomObs[k] = obs
		atoms.add(atom, obs)
		atomEvents = append(atomEvents, dem.ProjEvent{Dets: atom, Obs: obs, P: 0.01})
	}
	return dets, atomMax, atoms, atomObs, atomEvents
}

func FuzzMatchDecomposition(f *testing.F) {
	f.Add([]byte{2, 1, 0b0011, 0b1100, 0b1111})    // 4 dets, pairs
	f.Add([]byte{4, 2, 0b000111, 0b111000})        // 6 dets, triples
	f.Add([]byte{6, 0, 0b01, 0b10, 0b100, 0b1000}) // singles only
	f.Add([]byte{3, 1, 0b10001, 0b01010, 0b00100}) // odd footprint
	f.Fuzz(func(t *testing.T, data []byte) {
		dets, atomMax, atoms, atomObs, atomEvents := fuzzDecomposeInput(data)
		if dets == nil {
			t.Skip()
		}
		parts := matchDecomposition(dets, atomMax, atoms)
		if ref := refMatchDecomposition(dets, atomMax, atomObs); !reflect.DeepEqual(parts, ref) {
			t.Fatalf("matchDecomposition = %v, reference %v", parts, ref)
		}
		if parts != nil {
			// Non-nil means a full partition into registered atoms.
			var flat []int
			for _, part := range parts {
				if len(part) == 0 || len(part) > atomMax {
					t.Fatalf("part %v exceeds atomMax %d", part, atomMax)
				}
				if _, ok := atoms.lookup(part); !ok {
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
		if err := sameDecomposition(out, refDecomposeAtoms(events, atomMax, 16)); err != nil {
			t.Fatal(err)
		}
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

// sameDecomposition reports the first difference between two decomposed
// event lists: footprint lists, flags, observables or probability bits.
func sameDecomposition(got, want []dem.ProjEvent) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d events, reference %d", len(got), len(want))
	}
	for i, g := range got {
		r := want[i]
		if !reflect.DeepEqual(g.Dets, r.Dets) || !reflect.DeepEqual(g.Flags, r.Flags) || !reflect.DeepEqual(g.Obs, r.Obs) ||
			math.Float64bits(g.P) != math.Float64bits(r.P) {
			return fmt.Errorf("event %d = %v, reference %v", i, g, r)
		}
	}
	return nil
}

// TestDecomposeMatchesReference holds decomposeAtoms to the map-based
// reference on real projected models, at both settings the decoders
// use (atomMax 2 for matching, 3 for Restriction): the [[30,8,3,3]]
// FPN, the rotated d=5 FPN and a hexagonal colour code's FPN, each
// projected onto both bases.
func TestDecomposeMatchesReference(t *testing.T) {
	opt := fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}
	rot, err := surface.Rotated(5)
	if err != nil {
		t.Fatal(err)
	}
	hex, err := color.HexagonalToric(2)
	if err != nil {
		t.Fatal(err)
	}
	split := 0
	for _, code := range []*css.Code{hyper55(t), rot.Code, hex} {
		model, _ := buildModel(t, code, opt, css.Z, 3, 1e-3)
		for _, basis := range []css.Basis{css.Z, css.X} {
			events := model.Project(basis)
			for _, size := range [][2]int{{2, 8}, {3, 12}} {
				for _, ev := range events {
					if len(ev.Dets) > size[0] && len(ev.Dets) <= size[1] {
						split++
					}
				}
				got := decomposeAtoms(events, size[0], size[1])
				if err := sameDecomposition(got, refDecomposeAtoms(events, size[0], size[1])); err != nil {
					t.Errorf("%s basis=%c atomMax=%d: %v", code.Name, basis, size[0], err)
				}
			}
		}
	}
	if split == 0 {
		t.Fatal("no event was large enough to split")
	}
	t.Logf("%d events split", split)
}
