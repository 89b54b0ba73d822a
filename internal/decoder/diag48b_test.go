package decoder

import (
	"fmt"
	"testing"

	"github.com/fpn/flagproxy/internal/catalog"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/fpn"
)

// How many of the 48-qubit restriction failures are ambiguous at the
// Z-projection level (same Z-dets and flags, different obs)?
func TestDiag48ProjectedAmbiguity(t *testing.T) {
	var code *css.Code
	for _, e := range catalog.Standard() {
		if e.Family == "color" && e.Code.N == 48 {
			code = e.Code
		}
	}
	if code == nil {
		t.Skip("no 48 code")
	}
	if testing.Short() {
		t.Skip("slow regression probe")
	}
	model, _ := buildModel(t, code, fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}, css.Z, 4, 1e-3)
	projKey := func(zdets, flags []int) string {
		return fmt.Sprint(zdets, "|", flags)
	}
	byKey := map[string]map[string]bool{}
	for _, ev := range model.Events {
		var zdets []int
		for _, d := range ev.Dets {
			if model.Circuit.Detectors[d].Basis == css.Z {
				zdets = append(zdets, d)
			}
		}
		k := projKey(zdets, ev.Flags)
		if byKey[k] == nil {
			byKey[k] = map[string]bool{}
		}
		byKey[k][fmt.Sprint(ev.Obs)] = true
	}
	projAmb := map[string]bool{}
	for k, obsSet := range byKey {
		if len(obsSet) > 1 {
			projAmb[k] = true
		}
	}
	dec, err := NewRestriction(model, css.Z, 1e-3, true, true)
	if err != nil {
		t.Fatal(err)
	}
	fails, ambFails, total := 0, 0, 0
	for _, ev := range model.Events {
		var zdets []int
		for _, d := range ev.Dets {
			if model.Circuit.Detectors[d].Basis == css.Z {
				zdets = append(zdets, d)
			}
		}
		if len(zdets) == 0 && len(ev.Obs) == 0 {
			continue
		}
		total++
		corr, err := dec.Decode(EventDefects(ev))
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for o := range corr {
			want := false
			for _, x := range ev.Obs {
				if x == o {
					want = true
				}
			}
			if corr[o] != want {
				ok = false
			}
		}
		if !ok {
			fails++
			if projAmb[projKey(zdets, ev.Flags)] {
				ambFails++
			}
		}
	}
	t.Logf("failures %d/%d, projection-ambiguous %d", fails, total, ambFails)
	if fails > ambFails {
		t.Fatalf("flagged restriction failed %d projection-unambiguous single faults on [[48,8,4]]", fails-ambFails)
	}
}
