package css

import (
	"testing"

	"github.com/fpn/flagproxy/internal/gf2"
)

// steane returns the [[7,1,3]] Steane code.
func steane(t *testing.T) *Code {
	t.Helper()
	sups := [][]int{{0, 1, 2, 3}, {1, 2, 4, 5}, {2, 3, 5, 6}}
	var checks []Check
	for _, s := range sups {
		checks = append(checks, Check{Basis: X, Support: s, Color: -1})
	}
	for _, s := range sups {
		checks = append(checks, Check{Basis: Z, Support: s, Color: -1})
	}
	c, err := New("steane", "test", 7, checks)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSteaneParameters(t *testing.T) {
	c := steane(t)
	if c.K != 1 {
		t.Fatalf("k = %d, want 1", c.K)
	}
	if len(c.LogicalX) != 1 || len(c.LogicalZ) != 1 {
		t.Fatalf("logical counts %d/%d", len(c.LogicalX), len(c.LogicalZ))
	}
	// Logical Z commutes with X checks and is not a Z stabilizer.
	hx := c.CheckMatrix(X)
	if !hx.MulVec(c.LogicalZ[0]).IsZero() {
		t.Fatal("logical Z anticommutes with an X check")
	}
	hz := gf2.RowReduce(c.CheckMatrix(Z))
	if hz.InRowSpace(c.LogicalZ[0]) {
		t.Fatal("logical Z is a stabilizer")
	}
}

func TestSteaneDistance(t *testing.T) {
	c := steane(t)
	c.ComputeDistances()
	if c.DX != 3 || c.DZ != 3 || !c.DXExact || !c.DZExact {
		t.Fatalf("distances %d/%d exact=%v/%v; want 3/3 exact", c.DX, c.DZ, c.DXExact, c.DZExact)
	}
	if c.Params() != "[[7,1,3]]" {
		t.Fatalf("Params = %s", c.Params())
	}
}

func TestNewRejectsAnticommuting(t *testing.T) {
	checks := []Check{
		{Basis: X, Support: []int{0, 1}, Color: -1},
		{Basis: Z, Support: []int{1, 2}, Color: -1},
	}
	if _, err := New("bad", "test", 3, checks); err == nil {
		t.Fatal("expected commutation error")
	}
}

func TestNewRejectsRepeatedSupport(t *testing.T) {
	checks := []Check{{Basis: X, Support: []int{0, 0}, Color: -1}}
	if _, err := New("bad", "test", 2, checks); err == nil {
		t.Fatal("expected repeated-support error")
	}
}

func TestNewRejectsOutOfRange(t *testing.T) {
	checks := []Check{{Basis: X, Support: []int{5}, Color: -1}}
	if _, err := New("bad", "test", 3, checks); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestRepetitionCodeAsCSS(t *testing.T) {
	// 3-qubit repetition: Z checks only; k = 1. The logical X is XXX
	// (weight 3) while the logical Z is single-qubit (weight 1).
	checks := []Check{
		{Basis: Z, Support: []int{0, 1}, Color: -1},
		{Basis: Z, Support: []int{1, 2}, Color: -1},
	}
	c, err := New("rep3", "test", 3, checks)
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 1 {
		t.Fatalf("k = %d, want 1", c.K)
	}
	c.ComputeDistances()
	if c.DZ != 1 || c.DX != 3 {
		t.Fatalf("dZ=%d dX=%d, want 1,3", c.DZ, c.DX)
	}
}

func TestWeightsAndMaxWeight(t *testing.T) {
	c := steane(t)
	if w := c.Weights(X); len(w) != 1 || w[0] != 4 {
		t.Fatalf("Weights(X) = %v", w)
	}
	if c.MaxWeight(Z) != 4 {
		t.Fatalf("MaxWeight(Z) = %d", c.MaxWeight(Z))
	}
}

func TestLogicalsAnticommutePairwiseExistence(t *testing.T) {
	// For every X logical there must exist a Z logical it anticommutes
	// with (they generate a non-degenerate symplectic pairing space).
	c := steane(t)
	for _, lx := range c.LogicalX {
		any := false
		for _, lz := range c.LogicalZ {
			if lx.Dot(lz) {
				any = true
			}
		}
		if !any {
			t.Fatal("X logical commutes with all Z logicals")
		}
	}
}

func TestMinLogicalExactBudgetExhaustion(t *testing.T) {
	c := steane(t)
	res := MinLogicalExact(c.CheckMatrix(X), c.CheckMatrix(Z), 7, 3)
	if res.Exact {
		t.Fatal("tiny budget should not produce exact result")
	}
}

// TestMinLogicalBudgetFallback runs the search out of nodes: the result
// must be inexact, keep a lower bound below the true distance, and report
// the lightest vector of the code's own logical basis as the upper bound.
func TestMinLogicalBudgetFallback(t *testing.T) {
	c := steane(t)
	for _, b := range []struct {
		kerBasis Basis
		hKer     *gf2.Matrix
		hMod     *gf2.Matrix
		logicals []gf2.Vec
	}{
		{X, c.CheckMatrix(X), c.CheckMatrix(Z), c.LogicalZ},
		{Z, c.CheckMatrix(Z), c.CheckMatrix(X), c.LogicalX},
	} {
		lightest := c.N
		for _, v := range b.logicals {
			lightest = min(lightest, v.Weight())
		}
		res := minLogical(b.hKer, b.hMod, 10)
		if res.Exact || res.LowerBound >= 3 || res.D != lightest || res.D < 3 {
			t.Fatalf("ker(H%c) with budget 10: %+v; want inexact, lower bound < 3, D = %d (lightest basis vector)",
				b.kerBasis, res, lightest)
		}
	}
}

func TestChecksOf(t *testing.T) {
	c := steane(t)
	if len(c.ChecksOf(X)) != 3 || len(c.ChecksOf(Z)) != 3 {
		t.Fatal("ChecksOf counts wrong")
	}
}
