package decoder

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/fpn/flagproxy/internal/dem"
)

// TestDefectsExtract pins the extractor to the bit probe: on random
// results — dense and sparse lanes, a block whose words are all zero
// and a partial tail block — every lane's list is exactly the ascending
// set of detectors d with DetectorBit(d, shot).
func TestDefectsExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		numDet, shots int
		rate          float64
	}{
		{1, 64, 0.5},
		{70, 64*3 + 17, 0.05}, // block 1 is forced all-zero below
		{130, 40, 0.3},
		{200, 128, 0.002},
	} {
		res := syntheticResult(tc.numDet, 1, tc.shots, func(s int, set func(int)) {
			if s/64 == 1 {
				return
			}
			for d := 0; d < tc.numDet; d++ {
				if rng.Float64() < tc.rate {
					set(d)
				}
			}
		})
		var lanes Defects
		for first := 0; first < tc.shots; first += 64 {
			n := min(64, tc.shots-first)
			total := lanes.Extract(res, first, n)
			sum := 0
			for l := 0; l < n; l++ {
				got, want := lanes.Lane(l), bitDefects(res, first+l)
				if !slices.Equal(got, want) {
					t.Fatalf("dets=%d shots=%d shot %d: extracted %v, DetectorBit gives %v", tc.numDet, tc.shots, first+l, got, want)
				}
				sum += len(got)
			}
			if total != sum {
				t.Fatalf("dets=%d shots=%d block %d: Extract returned %d, lanes hold %d", tc.numDet, tc.shots, first/64, total, sum)
			}
		}
	}
}

// TestEventDefects pins the fault-set readout: detector and flag ids of
// all faults, XORed together, sorted.
func TestEventDefects(t *testing.T) {
	a := dem.Event{Dets: []int{1, 4, 9}, Flags: []int{6}}
	b := dem.Event{Dets: []int{4, 11}, Flags: []int{6, 7}}
	for _, tc := range []struct {
		evs  []dem.Event
		want []int32
	}{
		{nil, nil},
		{[]dem.Event{a}, []int32{1, 4, 6, 9}},
		{[]dem.Event{a, b}, []int32{1, 7, 9, 11}},
		{[]dem.Event{a, a}, nil},
		{[]dem.Event{a, b, a}, []int32{4, 6, 7, 11}},
	} {
		if got := EventDefects(tc.evs...); !slices.Equal(got, tc.want) {
			t.Errorf("EventDefects(%v) = %v, want %v", tc.evs, got, tc.want)
		}
	}
}
