package surface

import (
	"math/rand"
	"testing"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/group"
	"github.com/fpn/flagproxy/internal/tiling"
)

func torusMap(t *testing.T, n int) *tiling.Map {
	t.Helper()
	idx := func(x, y, dir int) int { return 4*((y%n)*n+(x%n)) + dir }
	nd := 4 * n * n
	sigma := make([]int, nd)
	alpha := make([]int, nd)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			for dir := 0; dir < 4; dir++ {
				sigma[idx(x, y, dir)] = idx(x, y, (dir+1)%4)
			}
			alpha[idx(x, y, 0)] = idx(x+1, y, 2)
			alpha[idx(x, y, 2)] = idx(x+n-1, y, 0)
			alpha[idx(x, y, 1)] = idx(x, y+1, 3)
			alpha[idx(x, y, 3)] = idx(x, y+n-1, 1)
		}
	}
	m, err := tiling.New(sigma, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestToricCodeFromMap(t *testing.T) {
	m := torusMap(t, 4)
	code, err := FromMap(m, "toric-4", "toric")
	if err != nil {
		t.Fatal(err)
	}
	if code.N != 32 || code.K != 2 {
		t.Fatalf("[[%d,%d]] want [[32,2]]", code.N, code.K)
	}
	if code.DZ != 4 || code.DX != 4 {
		t.Fatalf("d = %d/%d, want 4/4", code.DZ, code.DX)
	}
	if !code.DZExact || !code.DXExact {
		t.Fatal("homology distances must be exact")
	}
}

func TestToricDistanceMatchesEnumeration(t *testing.T) {
	m := torusMap(t, 3)
	code, err := FromMap(m, "toric-3", "toric")
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check the homology distance with the exact logical search.
	want := css.MinLogical(code.CheckMatrix(css.X), code.CheckMatrix(css.Z))
	if !want.Exact || want.D != code.DZ {
		t.Fatalf("homology dZ=%d, search %+v", code.DZ, want)
	}
}

func TestHyperbolic55FromA5(t *testing.T) {
	g, err := group.Alt(5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	pairs := group.FindRSPairs(g, 5, 5, rng, 3000, 5, 60)
	for _, p := range pairs {
		if p.Sub.Order() != 60 {
			continue
		}
		m, err := tiling.FromGroupPair(p)
		if err != nil || !m.NonDegenerate() {
			continue
		}
		code, err := FromMap(m, "hysc-5_5-30", "hyperbolic-surface {5,5}")
		if err != nil {
			t.Fatal(err)
		}
		// The paper's [[30,8,3,3]] code.
		if code.N != 30 || code.K != 8 {
			t.Fatalf("[[%d,%d]], want [[30,8]]", code.N, code.K)
		}
		if code.DZ != 3 || code.DX != 3 {
			t.Fatalf("d=%d/%d, want 3/3", code.DZ, code.DX)
		}
		// Cross-check with the exact logical search.
		ex := css.MinLogical(code.CheckMatrix(css.X), code.CheckMatrix(css.Z))
		if !ex.Exact || ex.D != 3 {
			t.Fatalf("search disagrees: %+v", ex)
		}
		return
	}
	t.Fatal("no suitable A5 pair found")
}

func TestRotatedSmall(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		l, err := Rotated(d)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if l.Code.N != d*d || l.Code.K != 1 {
			t.Fatalf("d=%d: [[%d,%d]]", d, l.Code.N, l.Code.K)
		}
		if len(l.Code.Checks) != d*d-1 {
			t.Fatalf("d=%d: %d checks, want %d", d, len(l.Code.Checks), d*d-1)
		}
	}
}

func TestRotatedDistanceVerified(t *testing.T) {
	for _, d := range []int{3, 5} {
		l, err := Rotated(d)
		if err != nil {
			t.Fatal(err)
		}
		got := css.MinLogical(l.Code.CheckMatrix(css.X), l.Code.CheckMatrix(css.Z))
		if !got.Exact || got.D != d {
			t.Fatalf("d=%d: measured dZ %+v", d, got)
		}
		gotX := css.MinLogical(l.Code.CheckMatrix(css.Z), l.Code.CheckMatrix(css.X))
		if !gotX.Exact || gotX.D != d {
			t.Fatalf("d=%d: measured dX %+v", d, gotX)
		}
	}
}

func TestRotatedCanonicalOrder(t *testing.T) {
	l, err := Rotated(3)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range l.Code.Checks {
		order := l.CanonicalCNOTOrder(ci)
		if len(order) != len(l.Code.Checks[ci].Support) {
			t.Fatalf("check %d: order %v vs support %v", ci, order, l.Code.Checks[ci].Support)
		}
		// Order must be a permutation of the support.
		in := map[int]bool{}
		for _, q := range l.Code.Checks[ci].Support {
			in[q] = true
		}
		for _, q := range order {
			if !in[q] {
				t.Fatalf("check %d: %d not in support", ci, q)
			}
		}
	}
}

func TestFromMapRejectsDegenerate(t *testing.T) {
	// A two-dart map: single edge, single vertex (loop) — degenerate.
	sigma := []int{1, 0}
	alpha := []int{1, 0}
	m, err := tiling.New(sigma, alpha)
	if err != nil {
		t.Skip("map invalid at construction, nothing to test")
	}
	if _, err := FromMap(m, "bad", "test"); err == nil {
		t.Fatal("expected degeneracy rejection")
	}
}
