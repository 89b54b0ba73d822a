package decoder

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"github.com/fpn/flagproxy/internal/color"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/fpn"
)

// obsFlippingShot returns the defect list of the model's first single
// fault whose decode by dec flips an observable.
func obsFlippingShot(t *testing.T, dec interface {
	Decode([]int32) ([]bool, error)
}, model *dem.Model) []int32 {
	t.Helper()
	for _, ev := range model.Events {
		defects := EventDefects(ev)
		corr, err := dec.Decode(defects)
		if err == nil && slices.Contains(corr, true) {
			return defects
		}
	}
	t.Fatal("no single fault decodes to an observable flip")
	return nil
}

// A panic raised anywhere below Decode/DecodeWith — here an index out of
// range inside the decoder, injected by a copy whose observable count is
// zeroed so that applying any correction overruns the correction slice —
// must surface as a returned error, not crash the caller. Multi-hour
// Monte-Carlo sweeps count such failures conservatively instead of
// dying.
func TestDecodeRecoversPanicsIntoErrors(t *testing.T) {
	code := hyper55(t)
	model, _ := buildModel(t, code, fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}, css.Z, 2, 1e-3)
	mw, err := NewMWPM(model, css.Z, 1e-3, true)
	if err != nil {
		t.Fatal(err)
	}
	uf, err := NewUnionFind(model, css.Z, 1e-3, true)
	if err != nil {
		t.Fatal(err)
	}
	// The Restriction decoder wants a 3-colorable check structure.
	ccode, err := color.HexagonalToric(2)
	if err != nil {
		t.Fatal(err)
	}
	cmodel, _ := buildModel(t, ccode, fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}, css.Z, 2, 1e-3)
	rs, err := NewRestriction(cmodel, css.Z, 1e-3, true, true)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBPOSD(model, css.Z, 5)
	if err != nil {
		t.Fatal(err)
	}
	badMW, badUF, badRS, badBP := *mw, *uf, *rs, *bp
	badMW.numObs, badUF.numObs, badRS.numObs, badBP.numObs = 0, 0, 0, 0
	decs := map[string]struct {
		dec interface {
			Decode([]int32) ([]bool, error)
		}
		shot []int32
		tag  string // decoder identity every counted error must carry
	}{
		"mwpm":        {&badMW, obsFlippingShot(t, mw, model), "mwpm(basis=Z flags=true pM=0.001)"},
		"unionfind":   {&badUF, obsFlippingShot(t, uf, model), "unionfind(basis=Z flags=true pM=0.001)"},
		"restriction": {&badRS, obsFlippingShot(t, rs, cmodel), "restriction(basis=Z flags=true lifting=true pM=0.001)"},
		"bposd":       {&badBP, obsFlippingShot(t, bp, model), "bp-osd(basis=Z iters=5)"},
	}
	for name, tc := range decs {
		corr, err := tc.dec.Decode(tc.shot)
		if err == nil {
			t.Errorf("%s: panic below Decode was not recovered into an error", name)
			continue
		}
		if corr != nil {
			t.Errorf("%s: recovered Decode returned a non-nil correction", name)
		}
		if !strings.Contains(err.Error(), "recovered panic") || !strings.Contains(err.Error(), "index out of range") {
			t.Errorf("%s: recovered error %q lost the panic message", name, err)
		}
		if !strings.Contains(err.Error(), tc.tag) {
			t.Errorf("%s: recovered error %q lost the decoder context %q", name, err, tc.tag)
		}
	}
	// A healthy shot must still decode after a recovered panic on the
	// same scratch and the decoder whose caches the sabotaged copy
	// shares: recovery must not poison shared state.
	shot := decs["mwpm"].shot
	sc := NewScratch()
	if _, err := badMW.DecodeWith(sc, shot); err == nil {
		t.Fatal("DecodeWith did not recover the injected panic")
	}
	want, err := mw.Decode(shot)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mw.DecodeWith(sc, shot)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("decode after a recovered panic diverged: corr=%v want %v err=%v", got, want, err)
	}
}

// Recover preserves error-typed panic values via %w so callers can
// still match them with errors.Is/As.
func TestRecoverWrapsErrorValues(t *testing.T) {
	sentinel := errors.New("sentinel failure")
	var err error
	func() {
		defer Recover(&err)
		panic(sentinel)
	}()
	if !errors.Is(err, sentinel) {
		t.Fatalf("recovered error %v does not wrap the panic value", err)
	}
	// Non-panicking paths must leave err untouched.
	err = nil
	func() { defer Recover(&err) }()
	if err != nil {
		t.Fatalf("Recover invented an error on a clean path: %v", err)
	}
}

// annotateErr must tag errors (including ones Recover just produced —
// defers run LIFO, so Recover fires first) and must stay silent on the
// happy path.
func TestAnnotateErrTagsRecoveredPanics(t *testing.T) {
	sentinel := errors.New("sentinel failure")
	f := func(explode bool) (err error) {
		defer annotateErr("mwpm(basis=Z flags=true pM=0.001)", &err)
		defer Recover(&err)
		if explode {
			panic(sentinel)
		}
		return nil
	}
	err := f(true)
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("annotated error %v no longer wraps the panic value", err)
	}
	if !strings.Contains(err.Error(), "mwpm(basis=Z flags=true pM=0.001)") {
		t.Fatalf("annotated error %q lost the decoder identity", err)
	}
	if err := f(false); err != nil {
		t.Fatalf("annotateErr invented an error on a clean path: %v", err)
	}
}
