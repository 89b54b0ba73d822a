package experiment

import (
	"testing"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/schedule"
	"github.com/fpn/flagproxy/internal/surface"
)

// The canonical rotated-surface-code ordering must be fault-tolerant:
// every single circuit fault decodes correctly, so deff = d.
func TestCanonicalRotatedIsFaultTolerant(t *testing.T) {
	l, err := surface.Rotated(3)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := schedule.CanonicalRotated(l)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := MeasureDeff(Config{
		Code:     l.Code,
		Basis:    css.Z,
		P:        1e-3,
		Seed:     1,
		Decoder:  FlaggedMWPM,
		Schedule: s,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("canonical d=3: %d faults, %d failures (%d ambiguous)",
		rep.Faults, rep.SingleFailures, rep.Ambiguous)
	// The canonical circuit's error model has 198 Z-relevant single
	// faults; a greedy rebuild of the code (TestGreedyRotatedDeffReport)
	// has 184. Reading 184 here means cfg.Schedule was ignored.
	if rep.Faults != 198 {
		t.Fatalf("canonical d=3 probed %d faults, want 198: MeasureDeff did not use cfg.Schedule", rep.Faults)
	}
	if rep.DeffLowerBound != 3 {
		t.Fatalf("canonical schedule not fault tolerant: %d failures", rep.SingleFailures)
	}
}

// Compare: the greedy schedule on the same code may or may not be
// fault-tolerant; record it (informational — the paper relies on
// structure-aware ordering for planar codes).
func TestGreedyRotatedDeffReport(t *testing.T) {
	l, err := surface.Rotated(3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := MeasureDeff(Config{
		Code:    l.Code,
		Arch:    fpn.Options{},
		Basis:   css.Z,
		P:       1e-3,
		Seed:    1,
		Decoder: FlaggedMWPM,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("greedy d=3: %d faults, %d failures (%d ambiguous), deff ≥ %d",
		rep.Faults, rep.SingleFailures, rep.Ambiguous, rep.DeffLowerBound)
}

func TestRunWithScheduleOverride(t *testing.T) {
	l, err := surface.Rotated(3)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := schedule.CanonicalRotated(l)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Code:     l.Code,
		Basis:    css.Z,
		P:        1e-3,
		Shots:    500,
		Seed:     2,
		Decoder:  FlaggedMWPM,
		Schedule: s,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyNs != schedule.TheoreticalShortestNs(4) {
		t.Fatalf("latency %.0f, want the canonical 1050", res.LatencyNs)
	}
}
