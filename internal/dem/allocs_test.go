//go:build !race

package dem

// Under the race detector allocation counts include the detector's own
// bookkeeping, so the gate below only builds without it.

import (
	"testing"

	"github.com/fpn/flagproxy/internal/fpn"
)

// TestExtractAllocsPerEvent pins extraction's allocations to the size of
// its output: a few per event plus a constant, however many faults the
// circuit has. Materializing a record per fault, or a footprint slice
// per fault, breaks it.
func TestExtractAllocsPerEvent(t *testing.T) {
	c := memCircuit(t, hyper55(t), fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}, 3, 1e-3)
	var events int
	allocs := testing.AllocsPerRun(3, func() {
		m, err := Extract(c)
		if err != nil {
			t.Fatal(err)
		}
		events = len(m.Events)
	})
	limit := float64(8*events + 1000)
	t.Logf("%.0f allocs for %d events (limit %.0f)", allocs, events, limit)
	if allocs > limit {
		t.Fatalf("Extract made %.0f allocations for %d events, want at most %.0f", allocs, events, limit)
	}
}
