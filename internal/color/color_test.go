package color

import (
	"math/rand"
	"testing"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/group"
	"github.com/fpn/flagproxy/internal/tiling"
)

func TestHexagonalToricL2(t *testing.T) {
	code, err := HexagonalToric(2)
	if err != nil {
		t.Fatal(err)
	}
	if code.N != 24 || code.K != 4 {
		t.Fatalf("[[%d,%d]], want [[24,4]]", code.N, code.K)
	}
	code.ComputeDistances()
	if !code.DZExact || code.DZ != 4 {
		t.Fatalf("dZ = %d (exact=%v), want 4", code.DZ, code.DZExact)
	}
	if code.DX != code.DZ {
		t.Fatalf("self-dual code has dX=%d dZ=%d", code.DX, code.DZ)
	}
}

func TestHexagonalToricL3(t *testing.T) {
	code, err := HexagonalToric(3)
	if err != nil {
		t.Fatal(err)
	}
	if code.N != 54 || code.K != 4 {
		t.Fatalf("[[%d,%d]], want [[54,4]]", code.N, code.K)
	}
	code.ComputeDistances()
	if code.DZ != 6 || code.DX != 6 || !code.DZExact || !code.DXExact {
		t.Fatalf("d = %d/%d (exact=%v/%v), want 6/6 exact", code.DX, code.DZ, code.DXExact, code.DZExact)
	}
}

func TestColorChecksCarryColor(t *testing.T) {
	code, err := HexagonalToric(2)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, ch := range code.Checks {
		if ch.Color < 0 || ch.Color > 2 {
			t.Fatalf("check has invalid color %d", ch.Color)
		}
		if ch.Basis == css.X {
			counts[ch.Color]++
		}
	}
	if counts[tiling.Red] == 0 || counts[tiling.Green] == 0 || counts[tiling.Blue] == 0 {
		t.Fatalf("missing a color class: %v", counts)
	}
}

// findHyperbolicColor searches the group menu for a (2, 2r, s/2) pair —
// base map {s/2, 2r} — and returns the first valid color code.
func findHyperbolicColor(t *testing.T, r, s, maxSub int) *css.Code {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	for _, entry := range group.Menu() {
		g, err := entry.Build()
		if err != nil || g.Order() > 1000 {
			continue
		}
		pairs := group.FindRSPairs(g, 2*r, s/2, rng, 1500, 4, maxSub)
		for _, p := range pairs {
			m, err := tiling.FromGroupPair(p)
			if err != nil {
				continue
			}
			code, err := FromMap(m, "hycc-test", "hyperbolic-color")
			if err != nil {
				continue
			}
			if code.K > 0 {
				return code
			}
		}
	}
	return nil
}

func TestHyperbolicColor46(t *testing.T) {
	// {4,6}: red octagons, green/blue hexagons; base map {3,8}.
	code := findHyperbolicColor(t, 4, 6, 400)
	if code == nil {
		t.Fatal("no {4,6} hyperbolic color code found")
	}
	if code.K <= 4 {
		t.Fatalf("k = %d; hyperbolic code should beat toric k=4", code.K)
	}
	// Self-dual: X and Z check matrices identical.
	hx, hz := code.CheckMatrix(css.X), code.CheckMatrix(css.Z)
	if hx.Rows() != hz.Rows() {
		t.Fatal("X/Z plaquette counts differ")
	}
	t.Logf("found %s with n=%d k=%d", code.Name, code.N, code.K)
}

func TestFromTilingRejectsInvalid(t *testing.T) {
	bad := &tiling.ColorTiling{NQubits: 4, Faces: []tiling.ColorFace{
		{Color: tiling.Red, Qubits: []int{0, 1, 2, 3}},
	}}
	if _, err := FromTiling(bad, "bad", "test"); err == nil {
		t.Fatal("expected validation failure (missing colors)")
	}
}
