package decoder

import (
	"math/rand"
	"testing"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/color"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/group"
	"github.com/fpn/flagproxy/internal/noise"
	"github.com/fpn/flagproxy/internal/schedule"
	"github.com/fpn/flagproxy/internal/sim"
	"github.com/fpn/flagproxy/internal/surface"
	"github.com/fpn/flagproxy/internal/tiling"
)

func hyper55(t *testing.T) *css.Code {
	t.Helper()
	g, err := group.Alt(5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, p := range group.FindRSPairs(g, 5, 5, rng, 3000, 5, 60) {
		if p.Sub.Order() != 60 {
			continue
		}
		m, err := tiling.FromGroupPair(p)
		if err != nil || !m.NonDegenerate() {
			continue
		}
		code, err := surface.FromMap(m, "hysc-30", "hyperbolic-surface {5,5}")
		if err == nil {
			return code
		}
	}
	t.Fatal("no [[30,8,3,3]] code")
	return nil
}

func buildModel(t *testing.T, code *css.Code, opt fpn.Options, basis css.Basis, rounds int, p float64) (*dem.Model, *circuit.Circuit) {
	t.Helper()
	net, err := fpn.Build(code, opt)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Greedy(net)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := schedule.BuildRoundPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	nm := &noise.Model{P: p}
	c, err := circuit.BuildMemory(circuit.MemorySpec{Plan: plan, Basis: basis, Rounds: rounds, Noise: nm})
	if err != nil {
		t.Fatal(err)
	}
	model, err := dem.Extract(c)
	if err != nil {
		t.Fatal(err)
	}
	return model, c
}

// bitDefects builds shot s's defect list by probing every detector with
// DetectorBit — a reference independent of the Defects extractor.
func bitDefects(res *sim.Result, s int) []int32 {
	var out []int32
	for d := range res.Detectors {
		if res.DetectorBit(d, s) {
			out = append(out, int32(d))
		}
	}
	return out
}

// ambiguousFaults counts events sharing (dets, flags) with different
// observables — faults no decoder can distinguish.
func ambiguousFaults(model *dem.Model) map[string]bool {
	byKey := map[string][][]int{}
	keyOf := func(ev dem.Event) string {
		b := make([]byte, 0, 64)
		for _, d := range ev.Dets {
			b = append(b, byte(d), byte(d>>8), byte(d>>16), '.')
		}
		b = append(b, '|')
		for _, f := range ev.Flags {
			b = append(b, byte(f), byte(f>>8), byte(f>>16), '.')
		}
		return string(b)
	}
	for _, ev := range model.Events {
		byKey[keyOf(ev)] = append(byKey[keyOf(ev)], ev.Obs)
	}
	amb := map[string]bool{}
	for k, obsList := range byKey {
		for i := 1; i < len(obsList); i++ {
			if !sameInts(obsList[i], obsList[0]) {
				amb[k] = true
			}
		}
	}
	return amb
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

type obsDecoder interface {
	Decode([]int32) ([]bool, error)
}

// exhaustiveSingleFault decodes every DEM event as a standalone shot and
// returns (failures, ambiguous-failures, total relevant).
func exhaustiveSingleFault(t *testing.T, model *dem.Model, d obsDecoder, basis css.Basis, amb map[string]bool) (int, int, int) {
	t.Helper()
	fails, ambFails, total := 0, 0, 0
	for _, ev := range model.Events {
		// Only faults visible in this basis graph matter here; faults with
		// no dets and no observable effect in this basis are no-ops.
		rel := false
		for _, det := range ev.Dets {
			if model.Circuit.Detectors[det].Basis == basis {
				rel = true
			}
		}
		if !rel && len(ev.Obs) == 0 {
			continue
		}
		total++
		corr, err := d.Decode(EventDefects(ev))
		if err != nil {
			t.Fatalf("decode error on event %+v: %v", ev, err)
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
			key := eventKey(ev)
			if amb[key] {
				ambFails++
			}
		}
	}
	return fails, ambFails, total
}

func eventKey(ev dem.Event) string {
	b := make([]byte, 0, 64)
	for _, d := range ev.Dets {
		b = append(b, byte(d), byte(d>>8), byte(d>>16), '.')
	}
	b = append(b, '|')
	for _, f := range ev.Flags {
		b = append(b, byte(f), byte(f>>8), byte(f>>16), '.')
	}
	return string(b)
}

// The headline fault-tolerance result (Figure 19's mechanism): on the
// [[30,8,3,3]] FPN circuit the flagged MWPM decoder corrects every
// single fault (effective distance ≥ 3 = full code distance), except
// faults that are information-theoretically ambiguous.
func TestFlaggedMWPMCorrectsAllSingleFaults(t *testing.T) {
	code := hyper55(t)
	model, _ := buildModel(t, code, fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}, css.Z, 3, 1e-3)
	amb := ambiguousFaults(model)
	dec, err := NewMWPM(model, css.Z, 1e-3, true)
	if err != nil {
		t.Fatal(err)
	}
	fails, ambFails, total := exhaustiveSingleFault(t, model, dec, css.Z, amb)
	t.Logf("flagged MWPM: %d/%d single-fault failures (%d ambiguous), %d classes",
		fails, total, ambFails, dec.NumClasses())
	if fails > ambFails {
		t.Fatalf("flagged decoder failed %d unambiguous single faults", fails-ambFails)
	}
}

// The plain MWPM baseline (PyMatching stand-in) must do strictly worse on
// the same circuit: without flag information some single faults are
// miscorrected (deff = 2 in the paper's Figure 19).
func TestPlainMWPMFailsSomeSingleFaults(t *testing.T) {
	code := hyper55(t)
	model, _ := buildModel(t, code, fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}, css.Z, 3, 1e-3)
	amb := ambiguousFaults(model)
	flagged, err := NewMWPM(model, css.Z, 1e-3, true)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewMWPM(model, css.Z, 1e-3, false)
	if err != nil {
		t.Fatal(err)
	}
	fFails, _, _ := exhaustiveSingleFault(t, model, flagged, css.Z, amb)
	pFails, _, total := exhaustiveSingleFault(t, model, plain, css.Z, amb)
	t.Logf("plain MWPM: %d/%d failures vs flagged %d", pFails, total, fFails)
	if pFails <= fFails {
		t.Fatalf("plain baseline (%d fails) not worse than flagged (%d)", pFails, fFails)
	}
}

// Standard MWPM on a direct-architecture toric code must correct every
// single fault (no flags involved; the canonical circuit-level test).
func TestMWPMToricDirectSingleFaults(t *testing.T) {
	m, err := tiling.SquareTorus(4)
	if err != nil {
		t.Fatal(err)
	}
	code, err := surface.FromMap(m, "toric-4", "toric")
	if err != nil {
		t.Fatal(err)
	}
	model, _ := buildModel(t, code, fpn.Options{}, css.Z, 4, 1e-3)
	amb := ambiguousFaults(model)
	dec, err := NewMWPM(model, css.Z, 1e-3, true)
	if err != nil {
		t.Fatal(err)
	}
	fails, ambFails, total := exhaustiveSingleFault(t, model, dec, css.Z, amb)
	t.Logf("toric MWPM: %d/%d failures (%d ambiguous)", fails, total, ambFails)
	if fails > ambFails {
		t.Fatalf("MWPM failed %d unambiguous single faults on the toric code", fails-ambFails)
	}
}

// The flagged Restriction decoder on a color-code FPN: single faults.
func TestFlaggedRestrictionSingleFaults(t *testing.T) {
	code, err := color.HexagonalToric(2)
	if err != nil {
		t.Fatal(err)
	}
	model, _ := buildModel(t, code, fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}, css.Z, 3, 1e-3)
	amb := ambiguousFaults(model)
	dec, err := NewRestriction(model, css.Z, 1e-3, true, true)
	if err != nil {
		t.Fatal(err)
	}
	fails, ambFails, total := exhaustiveSingleFault(t, model, dec, css.Z, amb)
	t.Logf("flagged restriction: %d/%d failures (%d ambiguous)", fails, total, ambFails)
	if fails > ambFails {
		t.Fatalf("flagged restriction failed %d unambiguous single faults", fails-ambFails)
	}
}

// Chamberland-style baseline must be strictly worse than the flagged
// Restriction decoder (Figure 20's mechanism).
func TestChamberlandBaselineWorse(t *testing.T) {
	code, err := color.HexagonalToric(2)
	if err != nil {
		t.Fatal(err)
	}
	model, _ := buildModel(t, code, fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}, css.Z, 3, 1e-3)
	amb := ambiguousFaults(model)
	flagged, err := NewRestriction(model, css.Z, 1e-3, true, true)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := NewRestriction(model, css.Z, 1e-3, true, false)
	if err != nil {
		t.Fatal(err)
	}
	fFails, _, _ := exhaustiveSingleFault(t, model, flagged, css.Z, amb)
	bFails, _, total := exhaustiveSingleFault(t, model, baseline, css.Z, amb)
	t.Logf("restriction baseline: %d/%d vs flagged %d", bFails, total, fFails)
	if bFails <= fFails {
		t.Fatalf("baseline (%d) not worse than flagged (%d)", bFails, fFails)
	}
}

func TestDecomposeFallback(t *testing.T) {
	events := []dem.ProjEvent{
		{Dets: []int{1, 2}, Obs: []int{0}, P: 0.01},
		{Dets: []int{3, 4}, Obs: nil, P: 0.01},
		{Dets: []int{1, 2, 3, 4}, Obs: []int{0}, P: 0.001},
	}
	out := decompose(events, 8)
	// The 4-det event must decompose into {1,2} and {3,4} with total obs {0}.
	if len(out) != 4 {
		t.Fatalf("decompose produced %d events", len(out))
	}
	obsTotal := map[int]int{}
	for _, ev := range out[2:] {
		if len(ev.Dets) != 2 {
			t.Fatalf("component with %d dets", len(ev.Dets))
		}
		for _, o := range ev.Obs {
			obsTotal[o]++
		}
	}
	if obsTotal[0]%2 != 1 {
		t.Fatal("decomposition lost the observable flip")
	}
}

func TestDecomposeUnmatchedPairs(t *testing.T) {
	events := []dem.ProjEvent{
		{Dets: []int{5, 6, 7, 8}, Obs: []int{1}, P: 0.001},
	}
	out := decompose(events, 8)
	if len(out) != 2 {
		t.Fatalf("fallback decomposition produced %d events", len(out))
	}
}

// Flag-overuse measurement (Figure 5's concern): some flag measurements
// change no decoding outcome and could be dropped. The conservative
// ⌊δ/2⌋-flag protocol is expected to contain such redundancy.
func TestOperationallyRedundantFlags(t *testing.T) {
	code := hyper55(t)
	model, c := buildModel(t, code, fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}, css.Z, 3, 1e-3)
	red, err := OperationallyRedundantFlags(model, css.Z, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, d := range c.Detectors {
		if d.IsFlag {
			total++
		}
	}
	t.Logf("operationally redundant flags: %d of %d (%.0f%%)",
		len(red), total, 100*float64(len(red))/float64(total))
	if len(red) == total {
		t.Fatal("all flags redundant contradicts the flagged-vs-plain separation")
	}
}
