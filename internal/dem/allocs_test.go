//go:build !race

package dem

// Under the race detector allocation counts include the detector's own
// bookkeeping, so the gate below only builds without it.

import (
	"testing"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/noise"
	"github.com/fpn/flagproxy/internal/surface"
)

// extractAllocLimit bounds Extract's allocations on any circuit the gate
// builds. Extraction allocates its per-op, per-measurement, per-qubit
// and per-fault arrays once, the interning table's arena and index grow
// by doubling, and the events share one index arena, so the count grows
// with neither faults nor events beyond a few doublings.
const extractAllocLimit = 100

// TestExtractAllocsPerEvent pins extraction's allocations to a fixed
// bound, on the [[30,8,3,3]] FPN (≈3k events) and on the rotated d=7
// FPN (11,051 events). A per-fault or per-event allocation (a string
// key, a map entry, an index slice per event) breaks it.
func TestExtractAllocsPerEvent(t *testing.T) {
	opt := fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}
	l, err := surface.Rotated(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, nc := range []namedCircuit{
		{"hyper55 fpn", memCircuit(t, hyper55(t), opt, 3, 1e-3)},
		{"rotated-d7 fpn", plannedCircuit(t, greedySchedule(t, l.Code, opt), css.Z, 7, &noise.Model{P: 1e-3})},
	} {
		var events int
		allocs := testing.AllocsPerRun(3, func() {
			m, err := Extract(nc.c)
			if err != nil {
				t.Fatal(err)
			}
			events = len(m.Events)
		})
		t.Logf("%s: %.0f allocs for %d events (limit %d)", nc.name, allocs, events, extractAllocLimit)
		if allocs > extractAllocLimit {
			t.Errorf("%s: Extract made %.0f allocations for %d events, want at most %d", nc.name, allocs, events, extractAllocLimit)
		}
	}
}
