// Batched decoding: one call decodes a whole 64-shot sampling block
// (one bit-packed word) instead of unpacking a syndrome per shot. Three
// effects stack. First, each shot's syndrome is extracted exactly once,
// as a compact sorted defect list, by streaming over the packed
// detector words (Defects: O(detectors + defects) per block, not
// O(64 × detectors)). Second, corrections are memoized by defect list
// in a per-scratch direct-mapped table: at p ≈ 1e-3 most syndromes
// repeat a handful of low-weight patterns, so the expensive matching
// runs only on first sight. The empty syndrome is an ordinary entry
// under the empty key. Third, a block whose detector words are all
// zero is served by one read of that entry, fanned out to all 64
// lanes. The memo is
// deterministic, scratch-owned and purely an execution-strategy cache —
// a batch decode is bit-identical to 64 scalar DecodeWith calls by
// construction, because a miss hands the decoder the lane's defect list
// itself, the exact key its outcome is stored under.
package decoder

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/fpn/flagproxy/internal/sim"
)

// BatchDecoder is implemented by decoders that can decode one 64-shot
// sampling block per call. Implementations must be bit-identical to
// decoding each lane with DecodeWith — the batch path is a pure
// optimization with no statistical footprint.
type BatchDecoder interface {
	// DecodeBatch decodes lanes [firstShot, firstShot+n) of res — one
	// sampling block: firstShot must be 64-aligned and n in (0, 64] —
	// and returns the number of lanes whose predicted observable flips
	// disagree with the sampled observables (counting decode failures as
	// errors, exactly like the scalar loop). A non-nil error reports a
	// violated call contract, never a per-shot decode failure.
	DecodeBatch(res *sim.Result, firstShot, n int, sc *DecodeScratch) (int, error)
}

// Memo geometry. A key lives only in slot keyHash(key) & (memoSlots−1),
// and a store overwrites whatever that slot held: no recency, no
// deletion. The slot count bounds memory (the table is allocated once
// per scratch); the key bound keeps entries fixed-size — defect lists
// longer than memoMaxKey are rare, expensive to compare, and decode
// scalar without touching the memo.
const (
	memoSlots  = 2048 // power of two
	memoMaxKey = 16   // defects per memoizable syndrome
)

// Batch lifts any ScratchDecoder to the BatchDecoder seam. Like the
// decoders it wraps, a Batch is immutable after construction and safe
// to share across workers; all mutable batch state (defect extraction
// buffers, the memo) lives in the caller's DecodeScratch.
type Batch struct {
	inner ScratchDecoder

	// MemoFault, when non-nil, is invoked on every memo store with the
	// entry's key hash and packed observable prediction, which it may
	// corrupt in place. It is a fault-injection seam for the chaos
	// harness — a poisoned memo must be caught by the batch-vs-scalar
	// differential tests — and must be set before the Batch is shared.
	// Production decoding leaves it nil.
	MemoFault func(keyHash uint64, pred []uint64)
}

// NewBatch wraps inner in the batch seam.
func NewBatch(inner ScratchDecoder) *Batch { return &Batch{inner: inner} }

// Inner returns the wrapped scalar decoder.
func (b *Batch) Inner() ScratchDecoder { return b.inner }

// Decode decodes a single shot's defect list through the wrapped
// decoder, allocating a private scratch — the convenience path; hot
// loops use DecodeBatch or DecodeWith.
func (b *Batch) Decode(defects []int32) ([]bool, error) {
	return b.inner.DecodeWith(NewScratch(), defects)
}

// DecodeWith forwards the scalar hot path to the wrapped decoder, so a
// Batch drops into any ScratchDecoder seat unchanged.
//
//fpn:hotpath
func (b *Batch) DecodeWith(sc *DecodeScratch, defects []int32) ([]bool, error) {
	return b.inner.DecodeWith(sc, defects)
}

// DecodeBatch decodes one sampling block. Lanes are processed in
// ascending order and the memo is keyed on each lane's full defect
// list, so the call sequence — and therefore the memo state and every
// output — is deterministic for a fixed (res, firstShot, n) stream.
//
//fpn:hotpath
func (b *Batch) DecodeBatch(res *sim.Result, firstShot, n int, sc *DecodeScratch) (int, error) {
	if res == nil || sc == nil {
		return 0, fmt.Errorf("decoder: DecodeBatch needs a result and a scratch")
	}
	if firstShot < 0 || firstShot%64 != 0 || n < 1 || n > 64 || firstShot+n > res.Shots {
		return 0, fmt.Errorf("decoder: DecodeBatch(firstShot=%d, n=%d) violates the block contract (Shots=%d)",
			firstShot, n, res.Shots)
	}
	bs := &sc.batch
	if bs.owner != b || bs.numDet != len(res.Detectors) || bs.numObs != len(res.Observables) {
		bs.init(b, len(res.Detectors), len(res.Observables))
	}
	wi, mask := firstShot>>6, laneMask(n)
	clear(bs.pred)
	var failW uint64
	if bs.lanes.Extract(res, firstShot, n) == 0 {
		// All lanes are syndrome-free: the empty key's entry serves the
		// whole block.
		if b.serve(sc, nil, mask) {
			failW = mask
		}
		return bs.countErrs(res, wi, mask, failW), nil
	}
	for l := 0; l < n; l++ {
		if b.serve(sc, bs.lanes.Lane(l), 1<<uint(l)) {
			failW |= 1 << uint(l)
		}
	}
	return bs.countErrs(res, wi, mask, failW), nil
}

// serve decodes the lanes set in the word lanes, which all carry the
// defect list key, into the prediction accumulators and reports whether
// their decode failed. The first lane of a miss is the one inner decode;
// every other lane is a memo hit.
//
//fpn:hotpath
func (b *Batch) serve(sc *DecodeScratch, key []int32, lanes uint64) (failed bool) {
	bs := &sc.batch
	var h uint64
	s := -1
	if len(key) <= memoMaxKey {
		h = keyHash(key)
		s = int(h & (memoSlots - 1))
		if bs.holds(s, key) {
			bs.hits += uint64(bits.OnesCount64(lanes))
			return bs.apply(s, lanes)
		}
	}
	// Miss: scalar-decode the lane's defect list — the very key the
	// outcome is stored under, so the memo replays a pure function of
	// its key.
	bs.misses++
	bs.hits += uint64(bits.OnesCount64(lanes)) - 1
	corr, err := b.inner.DecodeWith(sc, key)
	if s < 0 {
		for o, c := range corr {
			if c {
				bs.pred[o] |= lanes
			}
		}
		return err != nil
	}
	if !b.store(bs, s, h, key, corr, err) {
		return true
	}
	return bs.apply(s, lanes)
}

// store writes a fresh decode of key into slot s and reports whether
// the entry is valid. It is the memo's one panic boundary: the slot
// reads invalid (keyLen −1) until the entry is complete and the
// MemoFault seam has returned, so a panic out of the seam leaves
// nothing that can be replayed, and the lanes count as a failed decode,
// exactly like a scalar decode error.
//
//fpn:hotpath
func (b *Batch) store(bs *batchScratch, s int, h uint64, key []int32, corr []bool, decErr error) (ok bool) {
	e := &bs.memo[s]
	e.keyLen = -1
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	copy(e.key[:], key)
	e.fail = decErr != nil
	row := bs.row(s)
	clear(row)
	for o, c := range corr {
		if c {
			row[o>>6] |= 1 << (uint(o) & 63)
		}
	}
	if b.MemoFault != nil {
		b.MemoFault(h, row)
	}
	e.keyLen = int32(len(key))
	return true
}

// keyHash is FNV-1a over the defect ids (plus the length, folded in by
// construction since ids are distinct and sorted).
func keyHash(key []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, d := range key {
		h ^= uint64(uint32(d))
		h *= 1099511628211
	}
	return h
}

// memoEntry is one slot of the direct-mapped memo; its packed
// prediction is the slot's row of batchScratch.epred.
type memoEntry struct {
	keyLen int32 // −1: the slot holds nothing
	fail   bool  // the memoized decode returned an error
	key    [memoMaxKey]int32
}

// batchScratch is the per-scratch state of the batch path: defect
// extraction buffers, the per-lane prediction accumulators and the
// direct-mapped memo. It is (re)initialized whenever the scratch meets
// a new Batch owner or result shape, so a scratch moved between
// decoders can never replay another decoder's cached corrections.
type batchScratch struct {
	owner    *Batch
	numDet   int
	numObs   int
	obsWords int // packed words per observable-prediction row

	pred  []uint64 // per-observable predicted-flip lane bits, one word each
	lanes Defects  // the block's per-lane sorted defect lists

	memo  []memoEntry // memoSlots entries
	epred []uint64    // memoSlots × obsWords packed predictions

	hits   uint64
	misses uint64
}

// init sizes the table for a new owner/shape and empties the memo.
//
//fpnvet:coldpath one-time arena (re)construction on owner or shape change, not per shot
func (bs *batchScratch) init(b *Batch, numDet, numObs int) {
	bs.owner = b
	bs.numDet, bs.numObs = numDet, numObs
	bs.obsWords = (numObs + 63) / 64
	if bs.memo == nil {
		bs.memo = make([]memoEntry, memoSlots)
	}
	for s := range bs.memo {
		bs.memo[s].keyLen = -1
	}
	if need := memoSlots * bs.obsWords; cap(bs.epred) < need {
		bs.epred = make([]uint64, need)
	} else {
		bs.epred = bs.epred[:need]
	}
	if cap(bs.pred) < numObs {
		bs.pred = make([]uint64, numObs)
	}
	bs.pred = bs.pred[:numObs]
}

// countErrs folds the per-observable prediction words against the
// sampled observable words into one error word — bit l set iff lane l
// is a logical error — and pops its count. Decode-failure lanes (failW)
// count as errors unconditionally, matching the scalar loop.
func (bs *batchScratch) countErrs(res *sim.Result, wi int, mask, failW uint64) int {
	errW := failW
	for o := 0; o < bs.numObs; o++ {
		errW |= (res.ObservableWord(o, wi) & mask) ^ bs.pred[o]
	}
	return bits.OnesCount64(errW & mask)
}

// holds reports whether slot s holds the entry for key.
func (bs *batchScratch) holds(s int, key []int32) bool {
	e := &bs.memo[s]
	return int(e.keyLen) == len(key) && slices.Equal(e.key[:len(key)], key)
}

// row is slot s's packed observable prediction.
func (bs *batchScratch) row(s int) []uint64 {
	return bs.epred[s*bs.obsWords : (s+1)*bs.obsWords]
}

// apply ORs slot s's prediction into the accumulator bits of lanes and
// reports whether the memoized decode had failed.
func (bs *batchScratch) apply(s int, lanes uint64) bool {
	row := bs.row(s)
	for o := 0; o < bs.numObs; o++ {
		if row[o>>6]>>(uint(o)&63)&1 == 1 {
			bs.pred[o] |= lanes
		}
	}
	return bs.memo[s].fail
}

// MemoStats reports the cumulative batch-memo counters of this scratch:
// hits are lanes served without an inner decode (all-zero fast-path
// lanes included), misses are inner decodes (non-memoizable long
// syndromes included). Every decoded lane counts exactly once.
func (sc *DecodeScratch) MemoStats() (hits, misses uint64) {
	return sc.batch.hits, sc.batch.misses
}

// TakeMemoStats returns the counters and resets them — the
// accumulate-on-release hook for worker pools.
func (sc *DecodeScratch) TakeMemoStats() (hits, misses uint64) {
	hits, misses = sc.batch.hits, sc.batch.misses
	sc.batch.hits, sc.batch.misses = 0, 0
	return hits, misses
}
