package decoder

import (
	"testing"

	"github.com/fpn/flagproxy/internal/catalog"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/fpn"
)

// flagSetOf builds a dem.FlagSet holding the given ids, for test brevity.
func flagSetOf(ids ...int) *dem.FlagSet {
	s := &dem.FlagSet{}
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

func TestApplyEmptyClassSemantics(t *testing.T) {
	empty := &dem.Class{Members: []dem.ProjEvent{
		{Flags: []int{10, 11}, Obs: []int{0}, P: 1e-4},
		{Flags: []int{12}, Obs: []int{1}, P: 2e-4},
	}}
	// Exact flag match fires the member's frames.
	corr := make([]bool, 2)
	applyEmptyClass(empty, flagSetOf(10, 11), corr)
	if !corr[0] || corr[1] {
		t.Fatalf("corr = %v, want [true false]", corr)
	}
	// A completely unrelated flag is better explained by "no error":
	// member diffs (1+2=3, 1+1=2) are not below |F| = 1 → no action.
	corr = make([]bool, 2)
	applyEmptyClass(empty, flagSetOf(99), corr)
	if corr[0] || corr[1] {
		t.Fatalf("corr = %v, want no action", corr)
	}
	// No flags observed: never fires.
	corr = make([]bool, 2)
	applyEmptyClass(empty, flagSetOf(), corr)
	if corr[0] || corr[1] {
		t.Fatal("empty class fired without flags")
	}
	// Nil class is a no-op.
	applyEmptyClass(nil, flagSetOf(10), corr)
}

// Flag-only logical errors (zero syndrome, flags fired) exist on the
// weight-8 color codes and must decode through the empty-syndrome class.
// This is the regression test for the blind spot found on [[32,12,4]].
func TestFlagOnlyLogicalErrorsDecoded(t *testing.T) {
	if testing.Short() {
		t.Skip("slow regression probe")
	}
	var code *css.Code
	for _, e := range catalog.Standard() {
		if e.Family == "color" && e.Code.N == 32 {
			code = e.Code
		}
	}
	if code == nil {
		t.Skip("no [[32,12,4]] code")
	}
	model, _ := buildModel(t, code, fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}, css.Z, 4, 1e-3)
	dec, err := NewRestriction(model, css.Z, 1e-3, true, true)
	if err != nil {
		t.Fatal(err)
	}
	flagOnly, fails := 0, 0
	for _, ev := range model.Events {
		zdets := 0
		for _, d := range ev.Dets {
			if model.Circuit.Detectors[d].Basis == css.Z {
				zdets++
			}
		}
		if zdets != 0 || len(ev.Obs) == 0 {
			continue
		}
		flagOnly++
		corr, err := dec.Decode(EventDefects(ev))
		if err != nil {
			t.Fatal(err)
		}
		for o := range corr {
			want := false
			for _, x := range ev.Obs {
				if x == o {
					want = true
				}
			}
			if corr[o] != want {
				fails++
				break
			}
		}
	}
	if flagOnly == 0 {
		t.Skip("no flag-only logical events in this model")
	}
	t.Logf("flag-only logical events: %d, failures: %d", flagOnly, fails)
	if fails > 0 {
		t.Fatalf("empty-syndrome class failed on %d/%d flag-only logicals", fails, flagOnly)
	}
}
