package decoder

// Fault-injection on the rotated d=5 planar surface code under the
// canonical schedule: exact MWPM must correct every unambiguous single
// fault, and (distance permitting: 2·2 < 5) every sampled double fault,
// through the cached hot path and the naive path alike.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/dem"
)

func obsMatches(corr []bool, obs []int) bool {
	for o := range corr {
		want := false
		for _, x := range obs {
			if x == o {
				want = true
			}
		}
		if corr[o] != want {
			return false
		}
	}
	return true
}

func xorObs(evs ...dem.Event) []int {
	set := map[int]bool{}
	for _, ev := range evs {
		for _, o := range ev.Obs {
			set[o] = !set[o]
		}
	}
	var out []int
	for o, on := range set {
		if on {
			out = append(out, o)
		}
	}
	return out
}

func TestMWPMPlanarD5FaultInjection(t *testing.T) {
	model, _ := planarModel(t, 5, 1e-3)
	dec, err := NewMWPM(model, css.Z, 1e-3, false)
	if err != nil {
		t.Fatal(err)
	}
	amb := ambiguousFaults(model)
	sc := NewScratch()
	dd := diffDecoder{"mwpm-planar", dec,
		naiveRef(naiveMWPMDecode, dec, dec.classes)}

	// Every single fault: differential equality plus correctness.
	fails, ambFails := 0, 0
	for ei, ev := range model.Events {
		defects := EventDefects(ev)
		assertSameDecode(t, dd, sc, combinedDetBit(ev), defects, fmt.Sprintf("single-fault=%d", ei))
		corr, err := dec.DecodeWith(sc, defects)
		if err != nil {
			t.Fatalf("single fault %d: %v", ei, err)
		}
		if !obsMatches(corr, ev.Obs) {
			fails++
			if amb[eventKey(ev)] {
				ambFails++
			}
		}
	}
	t.Logf("planar d=5 singles: %d/%d failures (%d ambiguous)", fails, len(model.Events), ambFails)
	if fails > ambFails {
		t.Errorf("MWPM failed %d unambiguous single faults on planar d=5", fails-ambFails)
	}

	// Sampled double faults: at d=5 every weight-2 fault pattern is
	// within the code's correction radius, so an exact matcher over a
	// distance-preserving circuit corrects all of them (ambiguous pairs
	// excepted, detected by syndrome collision against the singles).
	rng := rand.New(rand.NewSource(9))
	const doubles = 500
	dFails := 0
	for di := 0; di < doubles; di++ {
		i := rng.Intn(len(model.Events))
		j := rng.Intn(len(model.Events))
		if i == j {
			continue
		}
		evI, evJ := model.Events[i], model.Events[j]
		defects := EventDefects(evI, evJ)
		assertSameDecode(t, dd, sc, combinedDetBit(evI, evJ), defects, fmt.Sprintf("double-fault=%d+%d", i, j))
		corr, err := dec.DecodeWith(sc, defects)
		if err != nil {
			t.Fatalf("double fault %d+%d: %v", i, j, err)
		}
		if !obsMatches(corr, xorObs(evI, evJ)) {
			dFails++
			t.Logf("double fault %d+%d miscorrected (dets %v+%v)", i, j, evI.Dets, evJ.Dets)
		}
	}
	t.Logf("planar d=5 doubles: %d/%d failures", dFails, doubles)
	if dFails > 0 {
		t.Errorf("MWPM failed %d sampled double faults on planar d=5", dFails)
	}
}
