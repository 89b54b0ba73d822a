package decoder

// Differential harness: the cached-Dijkstra / scratch-arena hot paths
// (DecodeWith) must be bit-identical to the naive pre-optimization
// reference decoders in naiveref_test.go, over a matrix of catalog
// codes × applicable decoders × bases × seeds, on sampled circuit-level
// shots and on injected single/double faults. One scratch is reused
// across every shot of a sub-case, so any state leakage between shots
// shows up as a mismatch.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/fpn"
)

// diffCase is one code under differential test; the per-build-mode case
// lists live in differential_cases_*.go (the full catalog slice is too
// slow under the race detector).
type diffCase struct {
	name  string
	code  *css.Code
	color bool
}

// diffDecoder pairs a scratch-based hot path with its naive reference.
type diffDecoder struct {
	name  string
	fast  ScratchDecoder
	naive func(func(int) bool) ([]bool, error)
}

// naiveRef binds a naive reference to its decoder and the decoder's
// flag list, computed once as the decoder once computed it.
func naiveRef[D any](naive func(D, []int, func(int) bool) ([]bool, error), d D, classes []dem.Class) func(func(int) bool) ([]bool, error) {
	flagAll := collectFlagList(classes)
	return func(bit func(int) bool) ([]bool, error) { return naive(d, flagAll, bit) }
}

// diffDecoders builds every decoder applicable to the model's code
// family, each paired with its pre-optimization reference.
func diffDecoders(t *testing.T, model *dem.Model, basis css.Basis, isColor bool) []diffDecoder {
	t.Helper()
	var out []diffDecoder
	if isColor {
		flagged, err := NewRestriction(model, basis, 1e-3, true, true)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffDecoder{"restriction-flagged", flagged,
			naiveRef(naiveRestrictionDecode, flagged, flagged.classes)})
		baseline, err := NewRestriction(model, basis, 1e-3, true, false)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffDecoder{"restriction-baseline", baseline,
			naiveRef(naiveRestrictionDecode, baseline, baseline.classes)})
	} else {
		flagged, err := NewMWPM(model, basis, 1e-3, true)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffDecoder{"mwpm-flagged", flagged,
			naiveRef(naiveMWPMDecode, flagged, flagged.classes)})
		norenorm, err := NewMWPM(model, basis, 1e-3, true)
		if err != nil {
			t.Fatal(err)
		}
		norenorm.DisableRenorm = true
		out = append(out, diffDecoder{"mwpm-flagged-norenorm", norenorm,
			naiveRef(naiveMWPMDecode, norenorm, norenorm.classes)})
		plain, err := NewMWPM(model, basis, 1e-3, false)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffDecoder{"mwpm-plain", plain,
			naiveRef(naiveMWPMDecode, plain, plain.classes)})
		ufd, err := NewUnionFind(model, basis, 1e-3, true)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffDecoder{"unionfind", ufd,
			naiveRef(naiveUnionFindDecode, ufd, ufd.classes)})
	}
	bposd, err := NewBPOSD(model, basis, 30)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, diffDecoder{"bposd", bposd,
		func(bit func(int) bool) ([]bool, error) { return naiveBPOSDDecode(bposd, bit) }})
	return out
}

// assertSameDecode decodes one shot through both paths and fails on any
// divergence (error presence, error text, or any correction bit). The
// naive reference reads the shot through bit, the fast path through its
// defect list, so the two inputs are derived independently.
func assertSameDecode(t *testing.T, dd diffDecoder, sc *DecodeScratch, bit func(int) bool, defects []int32, label string) {
	t.Helper()
	want, errN := dd.naive(bit)
	got, errF := dd.fast.DecodeWith(sc, defects)
	if (errN == nil) != (errF == nil) {
		t.Fatalf("%s %s: naive err=%v fast err=%v", dd.name, label, errN, errF)
	}
	if errN != nil {
		if errN.Error() != errF.Error() {
			t.Fatalf("%s %s: error text diverged: naive %q fast %q", dd.name, label, errN, errF)
		}
		return
	}
	if len(want) != len(got) {
		t.Fatalf("%s %s: correction length %d vs %d", dd.name, label, len(want), len(got))
	}
	for o := range want {
		if want[o] != got[o] {
			t.Fatalf("%s %s: correction bit %d diverged (naive %v, fast %v)", dd.name, label, o, want[o], got[o])
		}
	}
}

const diffRounds = 3

var diffOptions = fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}

// TestDifferentialDecode samples circuit-level shots at an elevated
// physical rate (so syndromes are non-trivial) and checks bit-identical
// decoding on every case × decoder × basis × seed. The naive side reads
// each shot with DetectorBit, the fast side its Defects lane, so every
// shot also checks the extractor against the bit probe.
func TestDifferentialDecode(t *testing.T) {
	for _, cs := range diffCases(t) {
		cs := cs
		t.Run(cs.name, func(t *testing.T) {
			t.Parallel()
			code := cs.code
			for _, basis := range []css.Basis{css.Z, css.X} {
				model, c := buildModel(t, code, diffOptions, basis, diffRounds, 3e-3)
				decs := diffDecoders(t, model, basis, cs.color)
				for _, seed := range []int64{11, 22, 33} {
					const shots = 32
					res := sample(c, shots, seed)
					var lanes Defects
					lanes.Extract(res, 0, shots)
					for _, dd := range decs {
						sc := NewScratch()
						for s := 0; s < shots; s++ {
							s := s
							bit := func(d int) bool { return res.DetectorBit(d, s) }
							assertSameDecode(t, dd, sc, bit, lanes.Lane(s),
								fmt.Sprintf("basis=%v seed=%d shot=%d", basis, seed, s))
						}
					}
				}
			}
		})
	}
}

// combinedDetBit is the detector readout of a set of faults (detector
// and flag flips XOR together).
func combinedDetBit(evs ...dem.Event) func(int) bool {
	set := map[int]bool{}
	for _, ev := range evs {
		for _, d := range ev.Dets {
			set[d] = !set[d]
		}
		for _, f := range ev.Flags {
			set[f] = !set[f]
		}
	}
	return func(d int) bool { return set[d] }
}

// foreignIDs returns two ids no decoder of the model's basis holds: the
// first syndrome detector of the other basis, and a flag id no class
// mentions. Every flag detector of the catalogue models is flipped by
// some fault, so that flag id is the first one past the circuit's
// detectors.
func foreignIDs(t *testing.T, model *dem.Model, basis css.Basis) []int32 {
	t.Helper()
	for di, det := range model.Circuit.Detectors {
		if !det.IsFlag && det.Basis != basis {
			return []int32{int32(di), int32(len(model.Circuit.Detectors))}
		}
	}
	t.Fatalf("model has no syndrome detector outside basis %v", basis)
	return nil
}

// assertIgnoresIDs decodes a shot on the fast path with and without
// extra ids the decoder does not own, and fails unless both decodes
// agree (error presence, error text and every correction bit).
func assertIgnoresIDs(t *testing.T, dd diffDecoder, sc *DecodeScratch, defects, extra []int32, label string) {
	t.Helper()
	corr, err := dd.fast.DecodeWith(sc, defects)
	want := slices.Clone(corr)
	extended := append(slices.Clone(defects), extra...)
	slices.Sort(extended)
	got, errX := dd.fast.DecodeWith(sc, slices.Compact(extended))
	if fmt.Sprint(err) != fmt.Sprint(errX) || !slices.Equal(got, want) {
		t.Fatalf("%s %s: ids %v changed the decode: %v (err %v) without them, %v (err %v) with", dd.name, label, extra, want, err, got, errX)
	}
}

// TestFaultInjectionDifferential replays every single fault of each
// case's error model, plus seeded random double faults, through both
// decode paths and requires bit-identical results. (Decoding success is
// covered by the correctness tests; here union-find's approximations,
// for example, must at least be the *same* approximations.) Each single
// fault is replayed once more with ids the decoder does not own added
// to its list — an other-basis detector and a flag id no class
// mentions — and must decode exactly as without them.
func TestFaultInjectionDifferential(t *testing.T) {
	for _, cs := range diffCases(t) {
		cs := cs
		t.Run(cs.name, func(t *testing.T) {
			t.Parallel()
			model, _ := buildModel(t, cs.code, diffOptions, css.Z, diffRounds, 1e-3)
			decs := diffDecoders(t, model, css.Z, cs.color)
			foreign := foreignIDs(t, model, css.Z)
			for _, dd := range decs {
				sc := NewScratch()
				for ei, ev := range model.Events {
					defects := EventDefects(ev)
					assertSameDecode(t, dd, sc, combinedDetBit(ev), defects, fmt.Sprintf("single-fault=%d", ei))
					assertIgnoresIDs(t, dd, sc, defects, foreign, fmt.Sprintf("single-fault=%d", ei))
				}
				rng := rand.New(rand.NewSource(7))
				const doubles = 300
				for di := 0; di < doubles; di++ {
					i := rng.Intn(len(model.Events))
					j := rng.Intn(len(model.Events))
					assertSameDecode(t, dd, sc, combinedDetBit(model.Events[i], model.Events[j]),
						EventDefects(model.Events[i], model.Events[j]), fmt.Sprintf("double-fault=%d+%d", i, j))
				}
			}
		})
	}
}
