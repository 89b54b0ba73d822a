// Batched decoding: one call decodes a whole 64-shot sampling block
// (one bit-packed word) instead of unpacking a syndrome per shot. Three
// effects stack. First, a block whose detector words are all zero — the
// overwhelmingly common case at useful physical rates — is decoded once
// and fanned out to all 64 lanes. Second, each shot's syndrome is
// extracted exactly once, as a compact sorted defect list, by streaming
// over the packed detector words (Defects: O(detectors + defects) per
// block, not O(64 × detectors)). Third, corrections are memoized by
// defect list in a per-scratch bounded LRU: at p ≈ 1e-3 most non-empty
// syndromes repeat a handful of low-weight patterns, so the expensive
// matching runs only on first sight. The memo is deterministic,
// scratch-owned and purely an execution-strategy cache — a batch decode
// is bit-identical to 64 scalar DecodeWith calls by construction,
// because a miss hands the decoder the lane's defect list itself, the
// exact key its outcome is stored under.
package decoder

import (
	"fmt"
	"math/bits"

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

// Memo geometry. The entry count bounds worst-case memory (the arena is
// allocated once per scratch); the key bound keeps entries fixed-stride
// — defect lists longer than memoMaxKey are rare, expensive to compare,
// and decode scalar without touching the memo.
const (
	memoEntries = 512
	memoTable   = 2048 // open-addressing slots; power of two ≥ 4× entries
	memoMaxKey  = 16   // defects per memoizable syndrome
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
		// All lanes are syndrome-free: decode the empty lane once and fan
		// its prediction out to the whole block.
		if !bs.emptyValid && !b.decodeEmpty(sc) {
			// The empty-lane decode (or the MemoFault seam) panicked: the
			// cache stays invalid and every lane of this block counts as a
			// failed decode, exactly like a scalar decode error.
			return bs.countErrs(res, wi, mask, mask), nil
		}
		for o := 0; o < bs.numObs; o++ {
			if bs.emptyPred[o>>6]>>(uint(o)&63)&1 == 1 {
				bs.pred[o] = mask
			}
		}
		if bs.emptyFail {
			failW = mask
		}
		bs.hits += uint64(n)
		return bs.countErrs(res, wi, mask, failW), nil
	}

	for l := 0; l < n; l++ {
		key := bs.lanes.Lane(l)
		if len(key) == 0 {
			if !bs.emptyValid && !b.decodeEmpty(sc) {
				failW |= 1 << uint(l)
				continue
			}
			for o := 0; o < bs.numObs; o++ {
				if bs.emptyPred[o>>6]>>(uint(o)&63)&1 == 1 {
					bs.pred[o] |= 1 << uint(l)
				}
			}
			if bs.emptyFail {
				failW |= 1 << uint(l)
			}
			bs.hits++
			continue
		}
		var h uint64
		memoable := len(key) <= memoMaxKey
		if memoable {
			h = keyHash(key)
			if e := bs.lookup(h, key); e >= 0 {
				bs.moveFront(e)
				if bs.applyEntry(e, l) {
					failW |= 1 << uint(l)
				}
				bs.hits++
				continue
			}
		}
		// Miss: scalar-decode the lane's defect list — the very key the
		// outcome is stored under, so the memo replays a pure function
		// of its key.
		bs.misses++
		corr, err := b.inner.DecodeWith(sc, key)
		if !memoable {
			for o, c := range corr {
				if c {
					bs.pred[o] |= 1 << uint(l)
				}
			}
			if err != nil {
				failW |= 1 << uint(l)
			}
			continue
		}
		if b.storeLane(bs, h, key, corr, err, l) {
			failW |= 1 << uint(l)
		}
	}
	return bs.countErrs(res, wi, mask, failW), nil
}

// storeLane memoizes one freshly decoded lane and applies the entry to
// the lane's prediction bits. It is the panic boundary of the memo
// store: if the MemoFault chaos seam (or the store itself) panics, the
// half-written entry is evicted from the index and recency list —
// nothing replayable survives — and the lane alone counts as a failed
// decode, exactly like a scalar decode error.
//
//fpn:hotpath
func (b *Batch) storeLane(bs *batchScratch, h uint64, key []int32, corr []bool, decErr error, l int) (failed bool) {
	e := int32(-1)
	defer func() {
		if r := recover(); r != nil {
			if e >= 0 {
				bs.evict(e)
			}
			failed = true
		}
	}()
	e = bs.insertSlot(h, key)
	row := bs.epred[int(e)*bs.obsWords : (int(e)+1)*bs.obsWords]
	for o, c := range corr {
		if c {
			row[o>>6] |= 1 << (uint(o) & 63)
		}
	}
	bs.fail[e] = decErr != nil
	if b.MemoFault != nil {
		b.MemoFault(h, row)
	}
	return bs.applyEntry(e, l)
}

// decodeEmpty computes and caches the decode of a syndrome-free lane
// (no defects, no flags — every detector reads zero). It reports
// whether the cache is valid: a panic out of the decode or the
// MemoFault seam leaves emptyValid false, so nothing half-written is
// ever fanned out to later lanes.
func (b *Batch) decodeEmpty(sc *DecodeScratch) (ok bool) {
	bs := &sc.batch
	bs.misses++
	defer func() {
		if r := recover(); r != nil {
			bs.emptyValid = false
			ok = false
		}
	}()
	corr, err := b.inner.DecodeWith(sc, nil)
	clear(bs.emptyPred)
	for o, c := range corr {
		if c {
			bs.emptyPred[o>>6] |= 1 << (uint(o) & 63)
		}
	}
	bs.emptyFail = err != nil
	if b.MemoFault != nil {
		b.MemoFault(keyHash(nil), bs.emptyPred)
	}
	bs.emptyValid = true
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

// batchScratch is the per-scratch state of the batch path: defect
// extraction buffers, the per-lane prediction accumulators and the
// bounded LRU memo. It is (re)initialized whenever the scratch meets a
// new Batch owner or result shape, so a scratch moved between decoders
// can never replay another decoder's cached corrections.
type batchScratch struct {
	owner    *Batch
	numDet   int
	numObs   int
	obsWords int // packed words per observable-prediction row

	pred  []uint64 // per-observable predicted-flip lane bits, one word each
	lanes Defects  // the block's per-lane sorted defect lists

	// Bounded LRU memo: a fixed entry arena (fixed-stride keys and
	// packed predictions), an open-addressing index with backward-shift
	// deletion, and an intrusive recency list. No maps, no per-shot
	// allocation, and every operation is deterministic in the lane
	// processing order.
	table  []int32  // slot -> entry+1; 0 = empty
	hash   []uint64 // per-entry key hash
	keyLen []int32  // per-entry key length
	keys   []int32  // memoEntries × memoMaxKey
	epred  []uint64 // memoEntries × obsWords packed predictions
	fail   []bool   // per-entry decode-failure flag
	prev   []int32  // LRU list toward the head (more recent)
	next   []int32  // LRU list toward the tail (least recent)
	head   int32    // most recently used entry, -1 when empty
	tail   int32    // least recently used entry, -1 when empty
	used   int
	free   []int32 // entries evicted after a faulted store, first to be reused
	freeN  int

	emptyValid bool
	emptyFail  bool
	emptyPred  []uint64 // packed prediction of the syndrome-free lane

	hits   uint64
	misses uint64
}

// init sizes the arena for a new owner/shape and empties the memo.
//
//fpnvet:coldpath one-time arena (re)construction on owner or shape change, not per shot
func (bs *batchScratch) init(b *Batch, numDet, numObs int) {
	bs.owner = b
	bs.numDet, bs.numObs = numDet, numObs
	bs.obsWords = (numObs + 63) / 64
	if len(bs.table) != memoTable {
		bs.table = make([]int32, memoTable)
		bs.hash = make([]uint64, memoEntries)
		bs.keyLen = make([]int32, memoEntries)
		bs.keys = make([]int32, memoEntries*memoMaxKey)
		bs.fail = make([]bool, memoEntries)
		bs.prev = make([]int32, memoEntries)
		bs.next = make([]int32, memoEntries)
		bs.free = make([]int32, memoEntries)
	} else {
		clear(bs.table)
	}
	bs.freeN = 0
	if need := memoEntries * bs.obsWords; cap(bs.epred) < need {
		bs.epred = make([]uint64, need)
	} else {
		bs.epred = bs.epred[:need]
	}
	if cap(bs.pred) < numObs {
		bs.pred = make([]uint64, numObs)
	}
	bs.pred = bs.pred[:numObs]
	if cap(bs.emptyPred) < bs.obsWords {
		bs.emptyPred = make([]uint64, bs.obsWords)
	}
	bs.emptyPred = bs.emptyPred[:bs.obsWords]
	bs.head, bs.tail = -1, -1
	bs.used = 0
	bs.emptyValid = false
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

// lookup probes the index for an entry with this hash and key,
// returning -1 on miss.
func (bs *batchScratch) lookup(h uint64, key []int32) int32 {
	mask := uint64(len(bs.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		t := bs.table[i]
		if t == 0 {
			return -1
		}
		if e := t - 1; bs.hash[e] == h && bs.keyEq(e, key) {
			return e
		}
	}
}

func (bs *batchScratch) keyEq(e int32, key []int32) bool {
	if int(bs.keyLen[e]) != len(key) {
		return false
	}
	ek := bs.keys[int(e)*memoMaxKey:]
	for i, d := range key {
		if ek[i] != d {
			return false
		}
	}
	return true
}

// insertSlot claims an entry for (h, key) — an evicted free one first,
// then a fresh one while the arena fills, the least-recently-used one
// afterwards — indexes it and makes it most recent. The caller fills
// the prediction row.
func (bs *batchScratch) insertSlot(h uint64, key []int32) int32 {
	var e int32
	if bs.freeN > 0 {
		bs.freeN--
		e = bs.free[bs.freeN]
	} else if bs.used < memoEntries {
		e = int32(bs.used)
		bs.used++
	} else {
		e = bs.tail
		bs.unlink(e)
		bs.tableRemove(e)
	}
	bs.hash[e] = h
	bs.keyLen[e] = int32(len(key))
	copy(bs.keys[int(e)*memoMaxKey:int(e)*memoMaxKey+len(key)], key)
	row := bs.epred[int(e)*bs.obsWords : (int(e)+1)*bs.obsWords]
	clear(row)
	bs.fail[e] = false
	bs.tableInsert(e)
	bs.pushFront(e)
	return e
}

// applyEntry ORs entry e's packed prediction into lane l's accumulator
// bits and reports whether the memoized decode had failed.
func (bs *batchScratch) applyEntry(e int32, l int) bool {
	row := bs.epred[int(e)*bs.obsWords:]
	for o := 0; o < bs.numObs; o++ {
		if row[o>>6]>>(uint(o)&63)&1 == 1 {
			bs.pred[o] |= 1 << uint(l)
		}
	}
	return bs.fail[e]
}

func (bs *batchScratch) tableInsert(e int32) {
	mask := uint64(len(bs.table) - 1)
	i := bs.hash[e] & mask
	for bs.table[i] != 0 {
		i = (i + 1) & mask
	}
	bs.table[i] = e + 1
}

// tableRemove deletes e from the open-addressing index with the
// classic linear-probing backward shift (Knuth 6.4R): entries displaced
// past the vacated slot are moved back so every probe chain stays
// unbroken — no tombstones, so the table never degrades.
func (bs *batchScratch) tableRemove(e int32) {
	mask := uint64(len(bs.table) - 1)
	i := bs.hash[e] & mask
	for bs.table[i] != e+1 {
		i = (i + 1) & mask
	}
	for {
		bs.table[i] = 0
		j := i
		for {
			j = (j + 1) & mask
			if bs.table[j] == 0 {
				return
			}
			home := bs.hash[bs.table[j]-1] & mask
			// Move the entry at j into the gap at i unless its home slot
			// lies cyclically within (i, j] — then its probe chain does
			// not cross the gap and it must stay.
			if (j > i && (home <= i || home > j)) || (j < i && home <= i && home > j) {
				bs.table[i] = bs.table[j]
				i = j
				break
			}
		}
	}
}

// evict removes a half-written entry from the index and the recency
// list and parks it on the free list, so a store aborted mid-write (a
// MemoFault panic) can never be replayed and the arena never leaks
// capacity. The free list is bounded by memoEntries: an entry is only
// ever parked once before insertSlot reclaims it.
func (bs *batchScratch) evict(e int32) {
	bs.tableRemove(e)
	bs.unlink(e)
	bs.free[bs.freeN] = e
	bs.freeN++
}

func (bs *batchScratch) pushFront(e int32) {
	bs.prev[e] = -1
	bs.next[e] = bs.head
	if bs.head >= 0 {
		bs.prev[bs.head] = e
	}
	bs.head = e
	if bs.tail < 0 {
		bs.tail = e
	}
}

func (bs *batchScratch) unlink(e int32) {
	if bs.prev[e] >= 0 {
		bs.next[bs.prev[e]] = bs.next[e]
	} else {
		bs.head = bs.next[e]
	}
	if bs.next[e] >= 0 {
		bs.prev[bs.next[e]] = bs.prev[e]
	} else {
		bs.tail = bs.prev[e]
	}
}

func (bs *batchScratch) moveFront(e int32) {
	if bs.head == e {
		return
	}
	bs.unlink(e)
	bs.pushFront(e)
}

// MemoStats reports the cumulative batch-memo hit/miss counters of this
// scratch (hits include all-zero fast-path lanes; misses include the
// one-time empty-lane decode and non-memoizable long syndromes).
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
