package decoder

import (
	"math/rand"
	"testing"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/hgp"
	"github.com/fpn/flagproxy/internal/sim"
)

func TestBPOSDSingleFaults(t *testing.T) {
	code := hyper55(t)
	model, _ := buildModel(t, code, fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}, css.Z, 3, 1e-3)
	amb := ambiguousFaults(model)
	dec, err := NewBPOSD(model, css.Z, 30)
	if err != nil {
		t.Fatal(err)
	}
	fails, ambFails, total := exhaustiveSingleFault(t, model, dec, css.Z, amb)
	t.Logf("BP+OSD: %d/%d single-fault failures (%d ambiguous)", fails, total, ambFails)
	if fails-ambFails > total/100 {
		t.Fatalf("BP+OSD failed %d/%d unambiguous single faults", fails-ambFails, total)
	}
}

func TestBPOSDVersusMWPMOnShots(t *testing.T) {
	code := hyper55(t)
	model, c := buildModel(t, code, fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}, css.Z, 3, 1e-3)
	bp, err := NewBPOSD(model, css.Z, 30)
	if err != nil {
		t.Fatal(err)
	}
	mw, err := NewMWPM(model, css.Z, 1e-3, true)
	if err != nil {
		t.Fatal(err)
	}
	res := sample(c, 800, 31)
	count := func(dec obsDecoder) int {
		errs := 0
		for shot := 0; shot < 800; shot++ {
			corr, err := dec.Decode(bitDefects(res, shot))
			if err != nil {
				errs++
				continue
			}
			for o := range c.Observables {
				if corr[o] != res.ObservableBit(o, shot) {
					errs++
					break
				}
			}
		}
		return errs
	}
	bpErrs := count(bp)
	mwErrs := count(mw)
	t.Logf("BP+OSD errors %d/800 vs flagged MWPM %d/800", bpErrs, mwErrs)
	// BP+OSD should be in the same league as matching (within 3x).
	if bpErrs > 3*mwErrs+10 {
		t.Fatalf("BP+OSD (%d) far worse than MWPM (%d)", bpErrs, mwErrs)
	}
}

// BP+OSD needs no graph structure, so it decodes hypergraph-product
// codes directly (matching cannot represent their hyperedges in
// general). Code-capacity-style check: single data errors.
func TestBPOSDDecodesHGP(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c1, err := hgp.RandomLDPC(6, 3, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	code, err := hgp.Product(c1, c1, "hgp-bposd")
	if err != nil {
		t.Fatal(err)
	}
	if code.K == 0 {
		t.Skip("degenerate random instance")
	}
	model, _ := buildModel(t, code, fpn.Options{}, css.Z, 2, 1e-3)
	amb := ambiguousFaults(model)
	dec, err := NewBPOSD(model, css.Z, 40)
	if err != nil {
		t.Fatal(err)
	}
	fails, ambFails, total := exhaustiveSingleFault(t, model, dec, css.Z, amb)
	t.Logf("BP+OSD on HGP [[%d,%d]]: %d/%d failures (%d ambiguous)", code.N, code.K, fails, total, ambFails)
	// Random HGP instances may have low distance; require decoding at
	// least 95%% of unambiguous single faults.
	if fails-ambFails > total/20 {
		t.Fatalf("BP+OSD failed %d/%d unambiguous single faults on HGP", fails-ambFails, total)
	}
}

// sample draws shots lanes of c from blocks 0, 1, … of a fresh
// BlockSampler seeded with base seed.
func sample(c *circuit.Circuit, shots int, seed int64) *sim.Result {
	return sim.NewBlockSampler(c, (shots+63)/64).Run(0, shots, seed)
}
