package sim

import (
	"strings"
	"testing"

	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/noise"
)

// assertCleanPastShots requires every detector and observable lane at or
// past r.Shots — the tail lanes of the final active word and every
// capacity word beyond Words — to be zero, the way a whole-word reader
// (the batch decode path) sees the rows.
func assertCleanPastShots(t *testing.T, r *Result, label string) {
	t.Helper()
	tailMask := ^uint64(0)
	if tail := uint(r.Shots) % 64; tail != 0 {
		tailMask = (uint64(1) << tail) - 1
	}
	check := func(kind string, rows [][]uint64) {
		for i, row := range rows {
			if g := row[r.Words-1] &^ tailMask; g != 0 {
				t.Fatalf("%s: %s %d has garbage %#x in the tail lanes of word %d (Shots=%d)",
					label, kind, i, g, r.Words-1, r.Shots)
			}
			for w := r.Words; w < len(row); w++ {
				if row[w] != 0 {
					t.Fatalf("%s: %s %d has stale word %#x at index %d past Words=%d (Shots=%d)",
						label, kind, i, row[w], w, r.Words, r.Shots)
				}
			}
		}
	}
	check("detector", r.Detectors)
	check("observable", r.Observables)
}

// TestResultCleanPastShotsAfterShrink is the tail-lane regression test:
// a reused sampler Result whose previous run was larger must not leak
// the old run's bits past the new Shots — neither into the unused high
// lanes of the final word nor into the capacity words beyond Words.
func TestResultCleanPastShotsAfterShrink(t *testing.T) {
	code := steane(t)
	// An aggressive physical rate so essentially every word of the large
	// run carries set bits — the garbage the shrink must erase.
	c := memoryCircuitWithNoise(t, code, fpn.Options{UseFlags: true, MaxDegree: 4}, 'Z', 3, 0.2)

	bs := NewBlockSampler(c, 4)
	big := bs.Run(0, 256, 7)
	set := 0
	for _, row := range big.Detectors {
		for _, w := range row {
			if w != 0 {
				set++
			}
		}
	}
	if set == 0 {
		t.Fatal("large run produced no detector bits; the shrink check would be vacuous")
	}
	for _, shots := range []int{100, 64, 33, 1} {
		assertCleanPastShots(t, bs.Run(1, shots, 9), "BlockSampler shrink")
	}
}

// TestResultBitAccessorsPanicPastShots pins the bounds-check contract:
// reading a shot at or past Shots panics with the offending shot index
// in the message instead of silently returning a masked lane.
func TestResultBitAccessorsPanicPastShots(t *testing.T) {
	code := steane(t)
	c := memoryCircuit(t, code, fpn.Options{UseFlags: true, MaxDegree: 4}, 'Z', 2, &noise.Model{P: 1e-3})
	res := sample(c, 100, 3)

	wantPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s past Shots did not panic", name)
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, "100") || !strings.Contains(msg, name) {
				t.Fatalf("%s panic %q does not name the accessor and the shot bound", name, r)
			}
		}()
		f()
	}
	wantPanic("DetectorBit", func() { res.DetectorBit(0, 100) })
	wantPanic("ObservableBit", func() { res.ObservableBit(0, 100) })
	wantPanic("DetectorBit", func() { res.DetectorBit(0, -1) })

	// In-range reads still work and the last valid lane is readable.
	_ = res.DetectorBit(0, 99)
	_ = res.ObservableBit(0, 0)
}
