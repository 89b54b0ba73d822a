package css_test

import (
	"fmt"
	"testing"

	"github.com/fpn/flagproxy/internal/catalog"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/gf2"
	"github.com/fpn/flagproxy/internal/surface"
)

func sameVecs(got, want []gf2.Vec) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d vectors, reference has %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("vector %d is %v, reference has %v", i, got[i].Support(), want[i].Support())
		}
	}
	return nil
}

func checkLogicalsMatchNaive(t *testing.T, c *css.Code) {
	t.Helper()
	hx, hz := c.CheckMatrix(css.X), c.CheckMatrix(css.Z)
	if err := sameVecs(c.LogicalZ, css.NaiveLogicalBasis(hx, hz, c.K)); err != nil {
		t.Fatalf("%s LogicalZ: %v", c.Name, err)
	}
	if err := sameVecs(c.LogicalX, css.NaiveLogicalBasis(hz, hx, c.K)); err != nil {
		t.Fatalf("%s LogicalX: %v", c.Name, err)
	}
}

// TestLogicalBasisMatchesNaive checks that the incremental echelon picks
// the same logical representatives, in the same order, as re-reducing
// the whole span per candidate, on rotated codes and on every catalogue
// code.
func TestLogicalBasisMatchesNaive(t *testing.T) {
	for d := 3; d <= 9; d++ {
		l, err := surface.Rotated(d)
		if err != nil {
			t.Fatal(err)
		}
		checkLogicalsMatchNaive(t, l.Code)
	}
	if testing.Short() {
		t.Skip("full catalogue is slow")
	}
	for _, e := range catalog.Standard() {
		checkLogicalsMatchNaive(t, e.Code)
	}
}
