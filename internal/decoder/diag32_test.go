package decoder

import (
	"fmt"
	"testing"

	"github.com/fpn/flagproxy/internal/catalog"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/fpn"
)

func TestDiag32RestrictionFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	var code *css.Code
	for _, e := range catalog.Standard() {
		if e.Family == "color" && e.Code.N == 32 {
			code = e.Code
		}
	}
	if code == nil {
		t.Skip("no 32 code")
	}
	model, _ := buildModel(t, code, fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}, css.Z, 4, 1e-3)
	amb := ambiguousFaults(model)
	dec, err := NewRestriction(model, css.Z, 1e-3, true, true)
	if err != nil {
		t.Fatal(err)
	}
	hist := map[string]int{}
	shown := 0
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
		if ok || amb[eventKey(ev)] {
			continue
		}
		var colors []int
		for _, d := range zdets {
			colors = append(colors, model.Circuit.Detectors[d].Color)
		}
		key := fmt.Sprintf("n=%d colors=%v flags=%d obs=%d", len(zdets), colors, len(ev.Flags), len(ev.Obs))
		hist[key]++
		if shown < 10 {
			t.Logf("FAIL dets=%v colors=%v flags=%v obs=%v p=%.2g", zdets, colors, ev.Flags, ev.Obs, ev.P)
			shown++
		}
	}
	total := 0
	for k, v := range hist {
		t.Logf("%4d  %s", v, k)
		total += v
	}
	if total > 0 {
		t.Fatalf("flagged restriction failed %d unambiguous single faults on [[32,12,4]]", total)
	}
}
