package decoder

// Regression coverage for the memo-store panic boundary: a panic thrown
// out of the MemoFault chaos seam while a freshly decoded lane is being
// memoized ("memo-warm") must surface as a counted decode error for
// that lane alone — never as a DecodeBatch contract error, a process
// panic, or a poisoned memo entry that replays a half-corrupted
// prediction on the next identical syndrome.

import (
	"testing"

	"github.com/fpn/flagproxy/internal/css"
)

// TestMemoFaultPanicCountsLaneKeepsMemoClean injects a MemoFault that
// corrupts the cached prediction and then panics mid-store. The faulted
// lanes must count as decode errors, and the half-written entry must
// never become valid: with the fault removed, the same scratch must
// re-miss, redo the store, and agree with the scalar reference bit for
// bit — a surviving poisoned entry would replay the corrupted
// prediction and diverge.
func TestMemoFaultPanicCountsLaneKeepsMemoClean(t *testing.T) {
	model, _ := planarModel(t, 3, 1e-3)
	d, err := NewMWPM(model, css.Z, 1e-3, true)
	if err != nil {
		t.Fatal(err)
	}
	numDet := len(model.Circuit.Detectors)
	numObs := len(model.Circuit.Observables)
	// Lanes 0 and 1 carry the same weight-2 syndrome; the rest are empty.
	res := syntheticResult(numDet, numObs, 64, func(s int, set func(int)) {
		if s < 2 {
			set(1)
			set(3)
		}
	})
	b := NewBatch(d)
	emptyKey := keyHash(nil)
	faults := 0
	b.MemoFault = func(h uint64, pred []uint64) {
		if h == emptyKey {
			return // let the empty key's entry build; this test targets the others
		}
		faults++
		pred[0] ^= 1 // half-finished corruption a surviving entry would replay
		panic("chaos: memo-warm panic")
	}
	sc := NewScratch()
	got, err := b.DecodeBatch(res, 0, 64, sc)
	if err != nil {
		t.Fatalf("memo-warm panic escalated to a contract error: %v", err)
	}
	if got != 2 {
		t.Fatalf("faulted block counted %d errors, want 2 (both stores panicked)", got)
	}
	// Lane 1 repeats lane 0's syndrome: if the panicked store had left
	// its entry valid, lane 1 would have hit it instead of re-missing.
	if faults != 2 {
		t.Fatalf("MemoFault fired %d times, want 2 (lane 1 must re-miss after lane 0's store panicked)", faults)
	}
	// Fault removed, same scratch: the memo must be rebuilt from scratch
	// and every count must match the scalar loop. A poisoned entry (the
	// pred[0] flip above) would fail this comparison.
	b.MemoFault = nil
	assertBatchMatchesScalar(t, b, sc, res, "post-fault rebuild")
	// And the rebuilt entry must actually serve hits again.
	hits0, _ := sc.MemoStats()
	if n, err := b.DecodeBatch(res, 0, 64, sc); err != nil || n != 0 {
		t.Fatalf("warm pass after rebuild: n=%d err=%v", n, err)
	}
	hits1, _ := sc.MemoStats()
	if hits1 <= hits0 {
		t.Fatalf("rebuilt memo served no hits (%d -> %d)", hits0, hits1)
	}
}

// TestMemoFaultPanicOnEmptyLaneCache drives the panic through the
// store of the empty key's entry: the whole all-zero block must count
// as failed decodes (matching the scalar convention that a decode error
// is a logical error), the entry must stay invalid, and a later
// fault-free call must rebuild it and decode cleanly.
func TestMemoFaultPanicOnEmptyLaneCache(t *testing.T) {
	model, _ := planarModel(t, 3, 1e-3)
	d, err := NewMWPM(model, css.Z, 1e-3, true)
	if err != nil {
		t.Fatal(err)
	}
	numDet := len(model.Circuit.Detectors)
	numObs := len(model.Circuit.Observables)
	res := syntheticResult(numDet, numObs, 96, func(int, func(int)) {}) // all lanes empty
	b := NewBatch(d)
	b.MemoFault = func(uint64, []uint64) { panic("chaos: empty-lane memo panic") }
	sc := NewScratch()
	if got, err := b.DecodeBatch(res, 0, 64, sc); err != nil || got != 64 {
		t.Fatalf("faulted all-zero block: got %d errors, err=%v; want 64, nil", got, err)
	}
	// Partial tail block: only the n live lanes count.
	if got, err := b.DecodeBatch(res, 64, 32, sc); err != nil || got != 32 {
		t.Fatalf("faulted all-zero tail: got %d errors, err=%v; want 32, nil", got, err)
	}
	b.MemoFault = nil
	if got, err := b.DecodeBatch(res, 0, 64, sc); err != nil || got != 0 {
		t.Fatalf("fault-free all-zero block after rebuild: got %d errors, err=%v; want 0, nil", got, err)
	}
	assertBatchMatchesScalar(t, b, sc, res, "empty-cache rebuild")
}
