package decoder

// Fuzzing the Restriction decoder's residual repair (restriction.go).
// The production coverResidual searches on scratch tables; it must
// return exactly what the map-based naiveCoverResidual returns, leave
// the residual as it found it, and order its candidates exactly as
// sort.Slice does, weight ties included (up to 256 classes, so the sort
// runs its quicksort paths, not only insertion sort).

import (
	"slices"
	"sort"
	"testing"

	"github.com/fpn/flagproxy/internal/dem"
)

// coverInput is one repair problem decoded from fuzz bytes.
type coverInput struct {
	classes  []dem.Class
	weight   []float64
	em       []int // 1 for classes one lattice voted for, else 0
	applied  []bool
	residual []int // ascending detector ids
	numDets  int
}

// fuzzCoverInput decodes data into up to 14 sparse detectors, up to 256
// classes with distinct footprints of 1–3 of them, weights from a
// four-value set (and the quarter discount of a voted class) so ties
// abound, and a residual that holds a few class footprints XORed
// together plus stray detectors.
func fuzzCoverInput(data []byte) coverInput {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nDets := 3 + next()%12
	nClasses := 1 + next()
	in := coverInput{numDets: 3*nDets + 2}
	seen := map[int]bool{}
	for ci := 0; ci < nClasses; ci++ {
		mask := next() | next()<<8
		var dets []int
		key := 0
		for i := 0; i < nDets && len(dets) < 3; i++ {
			if mask&(1<<i) != 0 {
				dets = append(dets, 3*i+1)
				key |= 1 << i
			}
		}
		if len(dets) == 0 || seen[key] {
			continue
		}
		seen[key] = true
		in.classes = append(in.classes, dem.Class{Dets: dets})
		tag := next()
		in.weight = append(in.weight, float64(1+tag%4))
		in.em = append(in.em, tag>>2&1)
		in.applied = append(in.applied, tag>>3&7 == 0)
		if in.applied[len(in.applied)-1] {
			in.em[len(in.em)-1] = 0
		}
	}
	res := map[int]bool{}
	for k := next() % 5; k > 0 && len(in.classes) > 0; k-- {
		for _, det := range in.classes[next()%len(in.classes)].Dets {
			toggle(res, det)
		}
	}
	stray := next() | next()<<8
	for i := 0; i < nDets; i++ {
		if stray&(1<<i) != 0 {
			toggle(res, 3*i+1)
		}
	}
	for det := range res {
		in.residual = append(in.residual, det)
	}
	sort.Ints(in.residual)
	return in
}

func FuzzCoverResidual(f *testing.F) {
	f.Add([]byte{5, 8, 1, 0, 2, 2, 0, 3, 3, 0, 1, 6, 0, 5, 12, 0, 9, 3, 0, 1, 2, 0, 0})
	f.Add([]byte{11, 63, 7, 0, 0, 56, 0, 1, 0, 7, 2, 192, 1, 3, 9, 0, 4, 17, 2, 5, 33, 1, 6, 4, 1, 2, 3, 255, 15})
	f.Add([]byte{2, 20, 1, 0, 0, 2, 0, 0, 4, 0, 0, 3, 0, 4, 5, 0, 4, 6, 0, 4, 2, 0, 1, 2})
	// Eight unit classes and a residual of seven of their detectors: the
	// only cover is seven deep, one past the depth cap.
	f.Add([]byte{5, 7, 1, 0, 8, 2, 0, 8, 4, 0, 8, 8, 0, 8, 16, 0, 8, 32, 0, 8, 64, 0, 8, 128, 0, 8, 0, 0x7f, 0})
	big := []byte{13, 63}
	for i := 0; i < 64; i++ {
		big = append(big, byte(37*i+11), byte(i%7), byte(i*13))
	}
	f.Add(append(big, 4, 0, 1, 2, 3, 0xff, 0x3f))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzCoverInput(data)
		d := &Restriction{classTable: classTable{classes: in.classes}}

		em := map[int]int{}
		applied := map[int]bool{}
		residual := map[int]bool{}
		for ci := range in.classes {
			if in.em[ci] > 0 {
				em[ci] = in.em[ci]
			}
			if in.applied[ci] {
				applied[ci] = true
			}
		}
		for _, det := range in.residual {
			residual[det] = true
		}
		want := naiveCoverResidual(d, residual, em, applied, in.weight)

		// A scratch that served a larger decoder first, so stale table
		// capacity is in play.
		var rs restScratch
		rs.ensure(len(in.classes)+7, in.numDets+5)
		rs.picked = append(rs.picked, len(in.classes)+3)
		rs.em[len(in.classes)+3] = 2
		rs.addResidual([]int{in.numDets + 2})
		rs.ensure(len(in.classes), in.numDets)
		for ci := range in.classes {
			if in.em[ci] > 0 || in.applied[ci] {
				rs.picked = append(rs.picked, ci)
				rs.em[ci] = in.em[ci]
				rs.applied[ci] = in.applied[ci]
			}
		}
		rs.addResidual(in.residual)
		got := d.coverResidual(&rs, in.weight)
		if !slices.Equal(got, want) {
			t.Fatalf("cover %v, reference %v (residual %v, classes %v)", got, want, in.residual, in.classes)
		}
		if rs.nres != len(in.residual) {
			t.Fatalf("repair left %d residual detectors, want %d", rs.nres, len(in.residual))
		}
		for det, on := range rs.residual {
			if on != residual[det] {
				t.Fatalf("repair changed residual detector %d", det)
			}
		}

		// Candidate order: the search must keep the 40 lightest
		// candidates in sort.Slice's order, ties included.
		var cands []repairCand
		for ci, cl := range in.classes {
			if !in.applied[ci] && subset(cl.Dets, residual) {
				w := in.weight[ci]
				if in.em[ci] > 0 {
					w /= 4
				}
				cands = append(cands, repairCand{ci, w})
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].w < cands[j].w })
		if len(cands) > 40 {
			cands = cands[:40]
		}
		if !slices.Equal(rs.cands, cands) {
			t.Fatalf("search candidates %v, sort.Slice order %v", rs.cands, cands)
		}
	})
}
