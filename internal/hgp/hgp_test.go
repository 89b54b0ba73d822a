package hgp

import (
	"math/rand"
	"testing"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/fpn"
)

func TestToricAsHGP(t *testing.T) {
	// HGP of two length-L cyclic repetition codes = the L×L toric code
	// [[2L², 2, L]].
	for _, l := range []int{3, 4} {
		rep := Repetition(l)
		code, err := Product(rep, rep, "toric-hgp")
		if err != nil {
			t.Fatal(err)
		}
		if code.N != 2*l*l {
			t.Fatalf("L=%d: n=%d, want %d", l, code.N, 2*l*l)
		}
		if code.K != 2 {
			t.Fatalf("L=%d: k=%d, want 2", l, code.K)
		}
		if code.K != ExpectedK(rep, rep) {
			t.Fatalf("dimension formula mismatch: %d vs %d", code.K, ExpectedK(rep, rep))
		}
		code.ComputeDistances()
		if code.DZ != l || code.DX != l {
			t.Fatalf("L=%d: d=%d/%d, want %d", l, code.DZ, code.DX, l)
		}
	}
}

func TestRandomLDPCShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c, err := RandomLDPC(6, 3, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.H.Rows() != 6 || c.H.Cols() != 8 {
		t.Fatalf("H is %dx%d, want 6x8", c.H.Rows(), c.H.Cols())
	}
	for i := 0; i < c.H.Rows(); i++ {
		if w := c.H.Row(i).Weight(); w > 4 {
			t.Fatalf("row %d weight %d exceeds dc=4", i, w)
		}
	}
}

func TestRandomLDPCBadParams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := RandomLDPC(5, 3, 4, rng); err == nil {
		t.Fatal("expected divisibility error")
	}
}

func TestRandomHGPDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c1, err := RandomLDPC(6, 3, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := RandomLDPC(6, 3, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Product(c1, c2, "hgp-rand")
	if err != nil {
		t.Fatal(err)
	}
	if code.K != ExpectedK(c1, c2) {
		t.Fatalf("k=%d, formula %d", code.K, ExpectedK(c1, c2))
	}
}

// The §VII-A architectural claim: a naive HGP architecture needs up to
// degree-8 connectivity (weight-(dv+dc) checks and data qubits in up to
// dv+dc checks), where the hyperbolic FPNs stay at degree 4.
func TestHGPNaiveDegreeVsFPN(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c1, err := RandomLDPC(6, 3, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Product(c1, c1, "hgp-rand")
	if err != nil {
		t.Fatal(err)
	}
	naive, err := fpn.Build(code, fpn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if naive.MaxDegreeUsed() < 6 {
		t.Fatalf("naive HGP degree %d; expected ≥ 6", naive.MaxDegreeUsed())
	}
	// An FPN tames it to 4 like any other code.
	tamed, err := fpn.Build(code, fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tamed.MaxDegreeUsed() > 4 {
		t.Fatalf("FPN degree %d exceeds bound", tamed.MaxDegreeUsed())
	}
	t.Logf("HGP [[%d,%d]]: naive max degree %d -> FPN %d (N %d -> %d)",
		code.N, code.K, naive.MaxDegreeUsed(), tamed.MaxDegreeUsed(),
		naive.NumQubits(), tamed.NumQubits())
}

func TestHGPChecksCommute(t *testing.T) {
	// css.New already verifies commutation; this exercises a rectangular
	// product (different H1, H2 shapes).
	rng := rand.New(rand.NewSource(6))
	c1, err := RandomLDPC(4, 2, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	c2 := Repetition(5)
	code, err := Product(c1, c2, "hgp-rect")
	if err != nil {
		t.Fatal(err)
	}
	if code.N != 6*5+4*5 {
		t.Fatalf("n=%d", code.N)
	}
	if got := code.MaxWeight(css.X); got > 2+3+2 {
		t.Fatalf("X weight %d too large", got)
	}
}
