package decoder

// Regression tests for deterministic flag handling. The scratch flag set
// used to be a map[int]bool whose range order varied run to run; the
// decoders now observe flags strictly in ascending detector order, so
// decoding the same flagged syndrome must yield byte-identical
// corrections no matter how many times it is repeated or which scratch
// serves the call.

import (
	"fmt"
	"testing"

	"github.com/fpn/flagproxy/internal/color"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/dem"
)

// flaggedShots picks syndromes of the model that set at least one flag
// detector: every single flagged fault plus pairwise combinations of the
// first few, capped at limit shots.
func flaggedShots(model *dem.Model, limit int) [][]int32 {
	var flagged []dem.Event
	for _, ev := range model.Events {
		if len(ev.Flags) > 0 {
			flagged = append(flagged, ev)
		}
	}
	var shots [][]int32
	for _, ev := range flagged {
		if len(shots) >= limit {
			return shots
		}
		shots = append(shots, EventDefects(ev))
	}
	for i := 0; i < len(flagged) && len(shots) < limit; i++ {
		for j := i + 1; j < len(flagged) && len(shots) < limit; j++ {
			shots = append(shots, EventDefects(flagged[i], flagged[j]))
		}
	}
	return shots
}

// assertRepeatedDecodesIdentical decodes each shot many times — reusing
// one warm scratch and also through fresh scratches — and fails if any
// correction byte ever differs from the first decode.
func assertRepeatedDecodesIdentical(t *testing.T, name string, d ScratchDecoder, shots [][]int32) {
	t.Helper()
	warm := NewScratch()
	for si, defects := range shots {
		first, err := d.DecodeWith(NewScratch(), defects)
		if err != nil {
			t.Fatalf("%s shot %d: %v", name, si, err)
		}
		want := append([]bool(nil), first...)
		for rep := 0; rep < 20; rep++ {
			sc := warm
			if rep%2 == 1 {
				sc = NewScratch()
			}
			got, err := d.DecodeWith(sc, defects)
			if err != nil {
				t.Fatalf("%s shot %d rep %d: %v", name, si, rep, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s shot %d rep %d: correction length %d, want %d", name, si, rep, len(got), len(want))
			}
			for o := range want {
				if got[o] != want[o] {
					t.Fatalf("%s shot %d rep %d: correction bit %d flipped between decodes of the same flagged syndrome", name, si, rep, o)
				}
			}
		}
	}
}

// TestFlaggedDecodeDeterministic replays the same flagged syndromes
// through every flag-aware decoder repeatedly and requires byte-identical
// corrections on every decode.
func TestFlaggedDecodeDeterministic(t *testing.T) {
	surf := hyper55(t)
	col, err := color.HexagonalToric(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, basis := range []css.Basis{css.Z, css.X} {
		basis := basis
		t.Run(fmt.Sprintf("basis=%v", basis), func(t *testing.T) {
			model, _ := buildModel(t, surf, diffOptions, basis, 2, 2e-3)
			shots := flaggedShots(model, 40)
			if len(shots) == 0 {
				t.Fatal("model has no flagged faults to replay")
			}
			mwpm, err := NewMWPM(model, basis, 1e-3, true)
			if err != nil {
				t.Fatal(err)
			}
			assertRepeatedDecodesIdentical(t, "mwpm-flagged", mwpm, shots)
			ufd, err := NewUnionFind(model, basis, 1e-3, true)
			if err != nil {
				t.Fatal(err)
			}
			assertRepeatedDecodesIdentical(t, "unionfind-flagged", ufd, shots)

			cmodel, _ := buildModel(t, col, diffOptions, basis, 2, 2e-3)
			cshots := flaggedShots(cmodel, 40)
			if len(cshots) == 0 {
				t.Fatal("color model has no flagged faults to replay")
			}
			rest, err := NewRestriction(cmodel, basis, 1e-3, true, true)
			if err != nil {
				t.Fatal(err)
			}
			assertRepeatedDecodesIdentical(t, "restriction-flagged", rest, cshots)
		})
	}
}
