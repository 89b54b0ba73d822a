package decoder

// Batch differential harness: DecodeBatch must be bit-identical to the
// scalar per-shot loop — same per-block logical-error counts, with
// decode failures counted the same way — across the case catalog, on
// cold and memo-warm passes, through memo slot collisions, across owner
// changes, and on partial tail blocks. A deliberately poisoned memo
// must be caught by the same comparison, proving the harness has teeth.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/sim"
)

// scalarBlockErrs is the reference: the engine's historical per-shot
// loop over one block, written against the same Result. It builds each
// shot's list with DetectorBit, not with the batch path's extractor.
func scalarBlockErrs(t *testing.T, dec ScratchDecoder, sc *DecodeScratch, res *sim.Result, firstShot, n int) int {
	t.Helper()
	errs := 0
	for s := firstShot; s < firstShot+n; s++ {
		corr, err := dec.DecodeWith(sc, bitDefects(res, s))
		if err != nil {
			errs++
			continue
		}
		for o := range res.Observables {
			if corr[o] != res.ObservableBit(o, s) {
				errs++
				break
			}
		}
	}
	return errs
}

// assertBatchMatchesScalar walks res block by block through both paths
// with the given batch scratch and fails on the first count divergence.
func assertBatchMatchesScalar(t *testing.T, b *Batch, bsc *DecodeScratch, res *sim.Result, label string) {
	t.Helper()
	ssc := NewScratch()
	for first := 0; first < res.Shots; first += 64 {
		n := res.Shots - first
		if n > 64 {
			n = 64
		}
		got, err := b.DecodeBatch(res, first, n, bsc)
		if err != nil {
			t.Fatalf("%s block %d: DecodeBatch contract error: %v", label, first/64, err)
		}
		want := scalarBlockErrs(t, b.Inner(), ssc, res, first, n)
		if got != want {
			t.Fatalf("%s block %d: batch counted %d errors, scalar %d", label, first/64, got, want)
		}
	}
}

// TestBatchDifferentialDecode proves the batch path bit-identical to
// the scalar loop over the differential case catalog (both bases, three
// seeds, an elevated physical rate so syndromes are non-trivial, and a
// partial tail block), then repeats each result memo-warm: the second
// pass must hit the memo and still agree.
func TestBatchDifferentialDecode(t *testing.T) {
	for _, cs := range diffCases(t) {
		cs := cs
		t.Run(cs.name, func(t *testing.T) {
			t.Parallel()
			for _, basis := range []css.Basis{css.Z, css.X} {
				model, c := buildModel(t, cs.code, diffOptions, basis, diffRounds, 3e-3)
				for _, dd := range diffDecoders(t, model, basis, cs.color) {
					if dd.name == "bposd" {
						continue // BPOSD stays on the scalar path by design
					}
					b := NewBatch(dd.fast)
					for _, seed := range []int64{11, 22, 33} {
						const shots = 200 // 3 full blocks + a 8-lane tail
						res := sample(c, shots, seed)
						bsc := NewScratch()
						label := fmt.Sprintf("%s basis=%v seed=%d", dd.name, basis, seed)
						assertBatchMatchesScalar(t, b, bsc, res, label+" cold")
						hits, misses := bsc.MemoStats()
						if hits+misses < shots {
							t.Fatalf("%s: memo counters %d+%d cover fewer than %d lanes", label, hits, misses, shots)
						}
						assertBatchMatchesScalar(t, b, bsc, res, label+" warm")
						warmHits, _ := bsc.MemoStats()
						if warmHits <= hits {
							t.Fatalf("%s: warm pass produced no new memo hits (%d -> %d)", label, hits, warmHits)
						}
					}
				}
			}
		})
	}
}

// syntheticResult builds a hand-laid Result whose lane l of block w
// carries the defect pattern chosen by fill, with all observables zero.
func syntheticResult(numDet, numObs, shots int, fill func(shot int, set func(det int))) *sim.Result {
	words := (shots + 63) / 64
	res := &sim.Result{Shots: shots, Words: words}
	res.Detectors = make([][]uint64, numDet)
	for d := range res.Detectors {
		res.Detectors[d] = make([]uint64, words)
	}
	res.Observables = make([][]uint64, numObs)
	for o := range res.Observables {
		res.Observables[o] = make([]uint64, words)
	}
	for s := 0; s < shots; s++ {
		fill(s, func(det int) {
			res.Detectors[det][s/64] |= 1 << (uint(s) % 64)
		})
	}
	return res
}

// countingDecoder counts the inner decodes a Batch asks of it.
type countingDecoder struct {
	ScratchDecoder
	calls int
}

func (c *countingDecoder) DecodeWith(sc *DecodeScratch, defects []int32) ([]bool, error) {
	c.calls++
	return c.ScratchDecoder.DecodeWith(sc, defects)
}

// TestBatchMemoSlotCollision alternates two distinct syndromes that
// share one memo slot lane by lane, so every store overwrites the other
// key's entry. Every lane must miss — the inner decoder is called once
// per lane — and every count must still match the scalar loop.
func TestBatchMemoSlotCollision(t *testing.T) {
	model, _ := planarModel(t, 3, 1e-3)
	d, err := NewMWPM(model, css.Z, 1e-3, true)
	if err != nil {
		t.Fatal(err)
	}
	numDet := len(model.Circuit.Detectors)
	numObs := len(model.Circuit.Observables)
	// The first two weight-2 syndromes whose hashes land in one slot.
	var keys [][]int32
	seen := map[uint64][]int32{}
search:
	for a := int32(0); a < int32(numDet); a++ {
		for b := a + 1; b < int32(numDet); b++ {
			key := []int32{a, b}
			s := keyHash(key) & (memoSlots - 1)
			if other, ok := seen[s]; ok {
				keys = [][]int32{other, key}
				break search
			}
			seen[s] = key
		}
	}
	if keys == nil {
		t.Fatalf("no two weight-2 syndromes of %d detectors share a memo slot", numDet)
	}
	const shots = 256
	res := syntheticResult(numDet, numObs, shots, func(s int, set func(int)) {
		for _, det := range keys[s%2] {
			set(int(det))
		}
	})
	cd := &countingDecoder{ScratchDecoder: d}
	b := NewBatch(cd)
	bsc, ssc := NewScratch(), NewScratch()
	for pass := 0; pass < 2; pass++ {
		for first := 0; first < shots; first += 64 {
			calls := cd.calls
			got, err := b.DecodeBatch(res, first, 64, bsc)
			if err != nil {
				t.Fatal(err)
			}
			if cd.calls-calls != 64 {
				t.Fatalf("pass %d block %d: %d inner decodes for 64 colliding lanes, want 64", pass, first/64, cd.calls-calls)
			}
			if want := scalarBlockErrs(t, d, ssc, res, first, 64); got != want {
				t.Fatalf("pass %d block %d: batch counted %d errors, scalar %d", pass, first/64, got, want)
			}
		}
	}
	if hits, misses := bsc.MemoStats(); hits != 0 || misses != 2*shots {
		t.Fatalf("memo counted %d hits, %d misses; want 0, %d", hits, misses, 2*shots)
	}
}

// TestBatchMemoMissesMatchModel pins the number the decode gate reads:
// on fixed BlockSampler streams, the inner decodes a Batch makes equal
// its MemoStats misses, and both equal a map-based model of the
// direct-mapped policy — one slot per key hash, a store overwrites, an
// all-zero block reads the empty key once, and keys longer than
// memoMaxKey always decode.
func TestBatchMemoMissesMatchModel(t *testing.T) {
	for _, tc := range []struct {
		rounds int
		p      float64
	}{{3, 1e-3}, {5, 5e-3}} {
		model, c := planarModel(t, tc.rounds, tc.p)
		d, err := NewMWPM(model, css.Z, tc.p, false)
		if err != nil {
			t.Fatal(err)
		}
		const shots = 4096
		res := sample(c, shots, 17)
		cd := &countingDecoder{ScratchDecoder: d}
		b := NewBatch(cd)
		sc := NewScratch()

		held := map[uint64][]int32{} // slot -> the key it holds
		want, long := 0, 0
		visit := func(key []int32) {
			if len(key) > memoMaxKey {
				want++
				long++
				return
			}
			s := keyHash(key) & (memoSlots - 1)
			if k, ok := held[s]; ok && slices.Equal(k, key) {
				return
			}
			want++
			held[s] = slices.Clone(key)
		}
		var lanes Defects
		for first := 0; first < shots; first += 64 {
			if _, err := b.DecodeBatch(res, first, 64, sc); err != nil {
				t.Fatal(err)
			}
			if lanes.Extract(res, first, 64) == 0 {
				visit(nil)
				continue
			}
			for l := 0; l < 64; l++ {
				visit(lanes.Lane(l))
			}
		}
		hits, misses := sc.MemoStats()
		label := fmt.Sprintf("rounds=%d p=%g", tc.rounds, tc.p)
		if cd.calls != int(misses) || int(misses) != want {
			t.Fatalf("%s: %d inner decodes, %d memo misses, model %d", label, cd.calls, misses, want)
		}
		if hits+misses != shots {
			t.Fatalf("%s: memo counters cover %d+%d lanes, want %d", label, hits, misses, shots)
		}
		if hits == 0 || want == long {
			t.Fatalf("%s: stream exercises no memo traffic (%d hits, %d long keys)", label, hits, long)
		}
		t.Logf("%s: %d misses of %d lanes (%d past the key bound)", label, misses, shots, long)
	}
}

// TestBatchOwnerChangeResetsMemo alternates one scratch between two
// Batch decoders with different corrections for the same syndromes. A
// memo that survived the owner change would replay the other decoder's
// cached corrections and diverge from its own scalar reference.
func TestBatchOwnerChangeResetsMemo(t *testing.T) {
	model, c := planarModel(t, 3, 5e-3)
	flagged, err := NewMWPM(model, css.Z, 1e-3, true)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewMWPM(model, css.Z, 1e-3, false)
	if err != nil {
		t.Fatal(err)
	}
	bf, bp := NewBatch(flagged), NewBatch(plain)
	res := sample(c, 192, 5)
	sc := NewScratch()
	for pass := 0; pass < 2; pass++ {
		assertBatchMatchesScalar(t, bf, sc, res, fmt.Sprintf("owner-flagged pass=%d", pass))
		assertBatchMatchesScalar(t, bp, sc, res, fmt.Sprintf("owner-plain pass=%d", pass))
	}
}

// TestBatchContractErrors pins the call contract: misaligned or
// oversized blocks are reported as errors (which the engine escalates
// to a shard quarantine), never silently mis-decoded.
func TestBatchContractErrors(t *testing.T) {
	model, c := planarModel(t, 2, 1e-3)
	d, err := NewMWPM(model, css.Z, 1e-3, true)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(d)
	res := sample(c, 100, 1)
	sc := NewScratch()
	for _, bad := range []struct {
		name     string
		first, n int
	}{
		{"misaligned", 32, 32},
		{"zero-lanes", 0, 0},
		{"oversized", 0, 65},
		{"past-shots", 64, 64}, // 64+64 > 100
		{"negative", -64, 64},
	} {
		if _, err := b.DecodeBatch(res, bad.first, bad.n, sc); err == nil {
			t.Errorf("%s: DecodeBatch(first=%d, n=%d) accepted a contract violation", bad.name, bad.first, bad.n)
		} else if !strings.Contains(err.Error(), "contract") {
			t.Errorf("%s: error %q does not name the block contract", bad.name, err)
		}
	}
	if _, err := b.DecodeBatch(nil, 0, 64, sc); err == nil {
		t.Error("nil result accepted")
	}
	if _, err := b.DecodeBatch(res, 0, 64, nil); err == nil {
		t.Error("nil scratch accepted")
	}
	// The legal tail block still decodes.
	if _, err := b.DecodeBatch(res, 64, 36, sc); err != nil {
		t.Errorf("legal tail block rejected: %v", err)
	}
}

// TestBatchMemoPoisoningDetected corrupts every memo store through the
// MemoFault seam and requires the batch-vs-scalar comparison to catch
// it — the sensitivity proof for the differential harness and the
// decoder-side half of the chaos memo-poisoning fault plan.
func TestBatchMemoPoisoningDetected(t *testing.T) {
	model, c := planarModel(t, 3, 5e-3)
	d, err := NewMWPM(model, css.Z, 1e-3, true)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(d)
	b.MemoFault = func(_ uint64, pred []uint64) { pred[0] ^= 1 }
	res := sample(c, 256, 9)
	bsc, ssc := NewScratch(), NewScratch()
	diverged := false
	for first := 0; first < res.Shots; first += 64 {
		got, err := b.DecodeBatch(res, first, 64, bsc)
		if err != nil {
			t.Fatal(err)
		}
		if got != scalarBlockErrs(t, d, ssc, res, first, 64) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("poisoned memo produced scalar-identical counts; the differential harness has no teeth")
	}
}
