package surface_test

import (
	"testing"

	"github.com/fpn/flagproxy/internal/catalog"
	"github.com/fpn/flagproxy/internal/surface"
)

// TestShortestNontrivialCycleMatchesNaiveCatalog compares the
// fundamental-cycle distance with the double-cover reference on every
// catalogue map and its dual, {4,5} n=660 included.
func TestShortestNontrivialCycleMatchesNaiveCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalogue is slow")
	}
	for _, e := range catalog.Standard() {
		m, d := e.Map, e.Map.Dual()
		if got, want := surface.ShortestNontrivialCycle(m), surface.NaiveShortestNontrivialCycle(m); got != want {
			t.Fatalf("%s map: distance %d, reference %d", e.Code.Name, got, want)
		}
		if got, want := surface.ShortestNontrivialCycle(d), surface.NaiveShortestNontrivialCycle(d); got != want {
			t.Fatalf("%s dual: distance %d, reference %d", e.Code.Name, got, want)
		}
	}
}
