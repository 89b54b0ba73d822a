package catalog

import (
	"testing"

	"github.com/fpn/flagproxy/internal/css"
)

func TestSurfaceCatalog55(t *testing.T) {
	entries := SurfaceCodes(5, 5, DefaultOptions())
	if len(entries) == 0 {
		t.Fatal("no {5,5} surface codes found")
	}
	found30 := false
	for _, e := range entries {
		c := e.Code
		if c.K != 2-e.Map.EulerChar() {
			t.Fatalf("%s: k=%d != 2-χ=%d", c.Name, c.K, 2-e.Map.EulerChar())
		}
		if !c.DZExact || !c.DXExact {
			t.Fatalf("%s: surface distances must be exact", c.Name)
		}
		if c.N == 30 && c.K == 8 && c.DZ == 3 {
			found30 = true
		}
		t.Logf("%s %s k=%d from %s", c.Name, c.Params(), c.K, e.GroupName)
	}
	if !found30 {
		t.Fatal("the [[30,8,3,3]] code is missing from the {5,5} catalogue")
	}
}

func TestSurfaceCatalog45(t *testing.T) {
	entries := SurfaceCodes(4, 5, DefaultOptions())
	if len(entries) == 0 {
		t.Fatal("no {4,5} surface codes found")
	}
	for _, e := range entries {
		if w := e.Code.MaxWeight(css.Z); w != 4 {
			t.Fatalf("%s: Z weight %d, want 4", e.Code.Name, w)
		}
		if w := e.Code.MaxWeight(css.X); w != 5 {
			t.Fatalf("%s: X weight %d, want 5", e.Code.Name, w)
		}
		t.Logf("%s %s from %s", e.Code.Name, e.Code.Params(), e.GroupName)
	}
}

func TestColorCatalog46(t *testing.T) {
	entries := ColorCodes(4, 6, DefaultOptions())
	if len(entries) == 0 {
		t.Fatal("no {4,6} color codes found")
	}
	for _, e := range entries {
		c := e.Code
		// Red plaquettes are 2r-gons, green/blue s-gons.
		weights := map[int]bool{}
		for _, ch := range c.Checks {
			weights[len(ch.Support)] = true
		}
		if !weights[8] || !weights[6] {
			t.Fatalf("%s: weights %v, want {6,8}", c.Name, weights)
		}
		t.Logf("%s %s (dExact=%v) from %s", c.Name, c.Params(), c.DZExact, e.GroupName)
	}
}

func TestStandardCatalogCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalogue is slow")
	}
	entries := Standard()
	perFam := map[string]int{}
	for _, e := range entries {
		perFam[e.Family]++
		t.Logf("%-8s {%d,%d} %-14s k=%d Rideal=%.3f group=%s",
			e.Family, e.Subfamily[0], e.Subfamily[1], e.Code.Params(), e.Code.K,
			e.Code.IdealRate(), e.GroupName)
	}
	if perFam["surface"] < 4 {
		t.Fatalf("only %d surface codes in catalogue", perFam["surface"])
	}
	if perFam["color"] < 2 {
		t.Fatalf("only %d color codes in catalogue", perFam["color"])
	}
	// Rate claim: hyperbolic codes encode multiple logical qubits.
	for _, e := range entries {
		if e.Code.K < 2 {
			t.Fatalf("%s has k=%d", e.Code.Name, e.Code.K)
		}
	}
	// Tables IV/V report [[n,k,d]]: every distance is certified, so
	// mapgen never prints "bound".
	for _, e := range entries {
		if !e.Code.DXExact || !e.Code.DZExact {
			t.Errorf("%s %s: distances are bounds, not exact", e.Code.Name, e.Code.Params())
		}
	}
}

// TestMinLogicalMatchesHomology checks the homology distances of every
// surface code in the catalogue (ShortestNontrivialCycle on the map and
// its dual) against css.MinLogical, which searches the check matrices
// and shares no code with the homology path.
func TestMinLogicalMatchesHomology(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalogue is slow")
	}
	surfaces := 0
	for _, e := range Standard() {
		if e.Family != "surface" {
			continue
		}
		surfaces++
		c := e.Code
		hx, hz := c.CheckMatrix(css.X), c.CheckMatrix(css.Z)
		dz, dx := css.MinLogical(hx, hz), css.MinLogical(hz, hx)
		if !dz.Exact || dz.D != c.DZ || !dx.Exact || dx.D != c.DX {
			t.Errorf("%s: homology dX/dZ = %d/%d, MinLogical %+v / %+v", c.Name, c.DX, c.DZ, dx, dz)
		}
	}
	if surfaces != 13 {
		t.Fatalf("%d surface codes in the catalogue, want the 13 catalog.golden pins", surfaces)
	}
}

func TestSearchSurfaceCodesFindsSmallMap(t *testing.T) {
	entries := SearchSurfaceCodes(5, 5, []int{20}, 0, 2_000_000)
	if len(entries) == 0 {
		t.Skip("dart search found nothing at this budget")
	}
	e := entries[0]
	if e.Code.N != 10 {
		t.Fatalf("n = %d, want 10 (the 20-dart {5,5} map)", e.Code.N)
	}
	if e.Code.K != 4 {
		t.Fatalf("k = %d, want 4 (genus-2 surface)", e.Code.K)
	}
	if !e.Code.DZExact {
		t.Fatal("surface distances must be exact")
	}
	t.Logf("searched code: %s from %s", e.Code.Params(), e.GroupName)
}

func TestSemiHyperbolicCodes(t *testing.T) {
	base := SurfaceCodes(4, 5, DefaultOptions())
	if len(base) == 0 {
		t.Fatal("no {4,5} base codes")
	}
	semi := SemiHyperbolicCodes(base, 2, 300)
	if len(semi) == 0 {
		t.Fatal("no semi-hyperbolic codes derived")
	}
	for _, e := range semi {
		// k preserved from the parent of the same blocklength/4.
		var parent Entry
		for _, b := range base {
			if 4*b.Code.N == e.Code.N {
				parent = b
			}
		}
		if parent.Code == nil {
			t.Fatalf("no parent for %s", e.Code.Name)
		}
		if e.Code.K != parent.Code.K {
			t.Fatalf("%s: k=%d, parent k=%d", e.Code.Name, e.Code.K, parent.Code.K)
		}
		// The primal distance scales exactly with l (every edge becomes a
		// length-l path); the dual distance grows more irregularly but
		// must strictly increase.
		if e.Code.DZ != 2*parent.Code.DZ {
			t.Fatalf("%s: dZ=%d, want exactly %d", e.Code.Name, e.Code.DZ, 2*parent.Code.DZ)
		}
		if e.Code.DX <= parent.Code.DX {
			t.Fatalf("%s: dX=%d did not grow from parent %d", e.Code.Name, e.Code.DX, parent.Code.DX)
		}
		t.Logf("%s %s from parent %s %s", e.Code.Name, e.Code.Params(),
			parent.Code.Name, parent.Code.Params())
	}
}
