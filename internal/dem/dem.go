// Package dem extracts the decoding hypergraph (detector error model)
// of a noisy circuit. One backward pass over the circuit carries, per
// qubit, the detectors and observables an X or a Z error at that point
// would flip (the transpose of the Pauli-frame simulation, as in Stim),
// so every elementary fault's footprint is the XOR of its Paulis' rows.
// Each distinct footprint is a hyperedge with syndrome bits σ(e), flag
// bits f(e), Pauli-frame effects λ(e) and probability π(e) — the
// structure of §VI-A.
// It also implements the paper's error equivalence classes (§VI-B):
// events are grouped by σ(e), and a flag-conditioned representative is
// selected per class with the Equation 9 renormalization.
//
// The build makes no string per fault or per event. Each bit row keeps
// the band of words it is non-zero on, and only the band is touched.
// Extraction, projection, class building and the decoders' hyperedge
// decomposition key footprints by one open-addressed interning table
// (Interner), whose ids are dense and in first-seen order. Events and
// projected events are ordered by sorting ids under the bytes of their
// footprint keys (appendFootprintKey), the order the string-keyed maps
// these replaced were sorted in, so every output is bit-identical to
// theirs.
package dem

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/fpn/flagproxy/internal/circuit"
)

// Event is one hyperedge of the decoding hypergraph.
type Event struct {
	Dets  []int // sorted syndrome-detector indices (non-flag)
	Flags []int // sorted flag-detector indices
	Obs   []int // sorted observable indices flipped
	P     float64
}

// Model is the full decoding hypergraph of a circuit.
type Model struct {
	Circuit *circuit.Circuit
	Events  []Event
}

// Extract enumerates every fault site of the circuit's noise channels
// and merges faults with identical footprints into one event.
//
// Footprints come from one backward pass. Column j of a footprint is
// detector j for j < len(c.Detectors), then observable j−len(c.Detectors).
// Walking the ops from last to first, sx[q] and sz[q] hold the columns
// an X or Z error on q injected right after the current op would flip.
// A fault injected after op oi reads them before op oi is reversed; a
// misread of measurement m flips measMask[m], the columns m feeds.
// Every row keeps the band of words outside which it is zero, and the
// pass touches only the band: a row of a circuit with many detectors
// is non-zero on a few of its words.
//
// The backward pass interns each fault's footprint, the band's offset
// and words, and stores one dense id per fault. Rows carry a hash that
// is linear in their columns (the XOR of a fixed per-column hash over
// the set columns), so a footprint's hash is the XOR of its rows'
// hashes and costs nothing per word. Probabilities then fold per id in
// forward fault order, because the XOR-combine p ← p(1−q) + q(1−p) is
// order-sensitive in floating point.
//
// A fault that fires no detector or flag is dropped; if it flips an
// observable instead, Extract fails (the circuit has distance 1).
func Extract(c *circuit.Circuit) (*Model, error) {
	nd := len(c.Detectors)
	w := (nd + len(c.Observables) + 63) / 64

	// Each op's first measurement index and first fault index.
	measBase := make([]int, len(c.Ops))
	faultBase := make([]int, len(c.Ops))
	nMeas, nFaults := 0, 0
	for oi, op := range c.Ops {
		measBase[oi], faultBase[oi] = nMeas, nFaults
		eachFault(op, nMeas, func(site) { nFaults++ })
		if op.Kind == circuit.OpMR || op.Kind == circuit.OpM {
			nMeas += len(op.Qubits)
		}
	}

	// A measurement listed twice by one detector cancels, as its parity
	// does.
	measMask := rows(c.NumMeas, w)
	for d, det := range c.Detectors {
		for _, m := range det.Meas {
			measMask[m].flip(d)
		}
	}
	for o, obs := range c.Observables {
		for _, m := range obs {
			measMask[m].flip(nd + o)
		}
	}
	for i := range measMask {
		measMask[i].trim()
		measMask[i].rehash()
	}

	sx, sz := rows(c.NumQubits, w), rows(c.NumQubits, w)
	fp := rows(1, w)[0]
	key := make([]byte, 0, 4+8*w)
	var footprints Interner
	faultID := make([]int32, nFaults)
	undetectable := false
	for oi := len(c.Ops) - 1; oi >= 0; oi-- {
		op := c.Ops[oi]
		k := faultBase[oi]
		eachFault(op, measBase[oi], func(s site) {
			if s.meas >= 0 {
				fp.copyFrom(&measMask[s.meas])
			} else {
				fp.clear()
				fp.xorPauli(&sx[s.qa], &sz[s.qa], s.pa)
				fp.xorPauli(&sx[s.qb], &sz[s.qb], s.pb)
			}
			id := int32(-1)
			if fp.anyBelow(nd) {
				key = binary.LittleEndian.AppendUint32(key[:0], uint32(fp.lo))
				for _, v := range fp.w[fp.lo:fp.hi] {
					key = binary.LittleEndian.AppendUint64(key, v)
				}
				id, _ = footprints.intern(key, mix64(fp.h))
			} else if fp.lo < fp.hi {
				undetectable = true
			}
			faultID[k] = id
			k++
		})
		reverseOp(op, measBase[oi], sx, sz, measMask)
	}
	if undetectable {
		return nil, fmt.Errorf("dem: undetectable fault flips an observable (distance 1 circuit)")
	}

	// Folding from 0 gives the first fault's p exactly: 0·(1−p) + p·1.
	prob := make([]float64, len(footprints.ends))
	for oi, op := range c.Ops {
		k := faultBase[oi]
		eachFault(op, measBase[oi], func(s site) {
			if id := faultID[k]; id >= 0 {
				prob[id] = prob[id]*(1-s.p) + s.p*(1-prob[id])
			}
			k++
		})
	}
	return &Model{Circuit: c, Events: events(c, &footprints.keyList, prob)}, nil
}

// site is one elementary fault: Pauli pa on qubit qa times Pauli pb on
// qubit qb (0=I, 1=X, 2=Y, 3=Z), or, when meas ≥ 0, a misread of
// measurement meas. It occurs with probability p.
type site struct {
	qa, pa, qb, pb int
	meas           int
	p              float64
}

// eachFault calls f for every elementary fault of op, in the forward
// order the model folds them; measBase is op's first measurement index.
func eachFault(op circuit.Op, measBase int, f func(site)) {
	switch op.Kind {
	case circuit.OpPauli1:
		for _, q := range op.Qubits {
			for i, p := range [3]float64{op.PX, op.PY, op.PZ} {
				if p > 0 {
					f(site{qa: q, pa: i + 1, meas: -1, p: p})
				}
			}
		}
	case circuit.OpDepol1:
		if op.P > 0 {
			for _, q := range op.Qubits {
				for pa := 1; pa <= 3; pa++ {
					f(site{qa: q, pa: pa, meas: -1, p: op.P / 3})
				}
			}
		}
	case circuit.OpDepol2:
		if op.P > 0 {
			for _, pr := range op.Pairs {
				for k := 1; k <= 15; k++ {
					f(site{qa: pr[0], pa: k / 4, qb: pr[1], pb: k % 4, meas: -1, p: op.P / 15})
				}
			}
		}
	case circuit.OpXFlip:
		if op.P > 0 {
			for _, q := range op.Qubits {
				f(site{qa: q, pa: 1, meas: -1, p: op.P})
			}
		}
	case circuit.OpMR, circuit.OpM:
		if op.FlipProb > 0 {
			for i := range op.Qubits {
				f(site{meas: measBase + i, p: op.FlipProb})
			}
		}
	}
}

// reverseOp turns the sensitivities after op into those before it: the
// transpose of the frame simulator's action. Noise ops act as identity.
func reverseOp(op circuit.Op, measBase int, sx, sz, measMask []row) {
	switch op.Kind {
	case circuit.OpCX:
		// Forward, X spreads control→target and Z target→control.
		for i := len(op.Pairs) - 1; i >= 0; i-- {
			c, t := op.Pairs[i][0], op.Pairs[i][1]
			sx[c].xor(&sx[t])
			sz[t].xor(&sz[c])
		}
	case circuit.OpH:
		for _, q := range op.Qubits {
			sx[q], sz[q] = sz[q], sx[q]
		}
	case circuit.OpReset:
		for _, q := range op.Qubits {
			sx[q].clear()
			sz[q].clear()
		}
	case circuit.OpMR, circuit.OpM:
		for i := len(op.Qubits) - 1; i >= 0; i-- {
			q := op.Qubits[i]
			if op.Kind == circuit.OpMR {
				sx[q].copyFrom(&measMask[measBase+i])
			} else {
				// M leaves the X frame in place for later gates.
				sx[q].xor(&measMask[measBase+i])
			}
			sz[q].clear()
		}
	}
}

// row is a bit row of columns with the band of words [lo, hi) outside
// which it is zero, and its hash h, the XOR of colHash over its set
// columns. An empty band is lo = len(w), hi = 0, so that the union of
// bands is a min and a max.
type row struct {
	w      []uint64
	lo, hi int
	h      uint64
}

// rows returns n zeroed rows of w words carved from one allocation.
func rows(n, w int) []row {
	flat := make([]uint64, n*w)
	r := make([]row, n)
	for i := range r {
		r[i] = row{w: flat[i*w : (i+1)*w : (i+1)*w], lo: w}
	}
	return r
}

// flip toggles column col, widening the band to its word. It leaves h
// stale until rehash.
func (r *row) flip(col int) {
	i := col / 64
	r.w[i] ^= 1 << (uint(col) % 64)
	r.lo, r.hi = min(r.lo, i), max(r.hi, i+1)
}

// rehash recomputes h from the set columns.
func (r *row) rehash() {
	r.h = 0
	for i := r.lo; i < r.hi; i++ {
		for b := r.w[i]; b != 0; b &= b - 1 {
			r.h ^= colHash(64*i + bits.TrailingZeros64(b))
		}
	}
}

// colHash is column col's pseudo-random 64-bit hash.
func colHash(col int) uint64 { return mix64(uint64(col) + 0x9e3779b97f4a7c15) }

// trim shrinks the band to the row's first and last non-zero words.
func (r *row) trim() {
	for r.lo < r.hi && r.w[r.lo] == 0 {
		r.lo++
	}
	for r.hi > r.lo && r.w[r.hi-1] == 0 {
		r.hi--
	}
	if r.lo == r.hi {
		r.lo, r.hi = len(r.w), 0
	}
}

func (r *row) clear() {
	if r.lo < r.hi {
		clear(r.w[r.lo:r.hi])
	}
	r.lo, r.hi, r.h = len(r.w), 0, 0
}

func (r *row) copyFrom(s *row) {
	r.clear()
	if s.lo < s.hi {
		copy(r.w[s.lo:s.hi], s.w[s.lo:s.hi])
	}
	r.lo, r.hi, r.h = s.lo, s.hi, s.h
}

// xor adds s to r and trims r's band.
func (r *row) xor(s *row) {
	if s.lo >= s.hi {
		return
	}
	dst := r.w[s.lo:s.hi]
	for i, v := range s.w[s.lo:s.hi] {
		dst[i] ^= v
	}
	r.lo, r.hi = min(r.lo, s.lo), max(r.hi, s.hi)
	r.h ^= s.h
	r.trim()
}

// xorPauli adds the footprint of Pauli p (0=I, 1=X, 2=Y, 3=Z) given the
// qubit's X and Z sensitivity rows.
func (r *row) xorPauli(x, z *row, p int) {
	if p == 1 || p == 2 {
		r.xor(x)
	}
	if p == 2 || p == 3 {
		r.xor(z)
	}
}

// anyBelow reports whether any of the first n columns is set.
func (r *row) anyBelow(n int) bool {
	for i := r.lo; i < min(r.hi, n/64); i++ {
		if r.w[i] != 0 {
			return true
		}
	}
	return n%64 != 0 && r.lo <= n/64 && n/64 < r.hi && r.w[n/64]&(1<<(uint(n)%64)-1) != 0
}

// events decodes each interned footprint (its band offset, then its
// words, little-endian) into an Event and returns them sorted by
// footprint key. All index lists share one backing array.
func events(c *circuit.Circuit, footprints *keyList, prob []float64) []Event {
	n := len(footprints.ends)
	if n == 0 {
		return nil
	}
	// Three column masks split a footprint into its syndrome detectors,
	// flags and observables.
	nd := len(c.Detectors)
	w := (nd + len(c.Observables) + 63) / 64
	masks := make([]uint64, 3*w)
	for col := 0; col < nd+len(c.Observables); col++ {
		part := 0
		if col >= nd {
			part = 2
		} else if c.Detectors[col].IsFlag {
			part = 1
		}
		masks[part*w+col/64] |= 1 << (uint(col) % 64)
	}
	total := 0
	for id := range n {
		f := footprints.key(int32(id))
		for i := 4; i < len(f); i += 8 {
			total += bits.OnesCount64(binary.LittleEndian.Uint64(f[i:]))
		}
	}
	// Footprint id's dets, flags and obs are arena[at[0]:at[1]],
	// arena[at[1]:at[2]] and arena[at[2]:at[3]], with at = ends[id].
	arena := make([]int, 0, total)
	ends := make([][4]int32, n)
	var keys keyList
	keys.arena = make([]byte, 0, 4*total+2*n)
	keys.ends = make([]int32, 0, n)
	var key []byte
	for id := range n {
		f := footprints.key(int32(id))
		lo := int(binary.LittleEndian.Uint32(f))
		at := &ends[id]
		at[0] = int32(len(arena))
		for part := range 3 {
			sub := 0
			if part == 2 {
				sub = nd
			}
			for i := 4; i < len(f); i += 8 {
				word := lo + (i-4)/8
				for b := binary.LittleEndian.Uint64(f[i:]) & masks[part*w+word]; b != 0; b &= b - 1 {
					arena = append(arena, 64*word+bits.TrailingZeros64(b)-sub)
				}
			}
			at[part+1] = int32(len(arena))
		}
		key = appendFootprintKey(key[:0], arena[at[0]:at[1]], arena[at[1]:at[2]], arena[at[2]:at[3]])
		keys.add(key)
	}
	list := func(from, to int32) []int {
		if from == to {
			return nil
		}
		return arena[from:to:to]
	}
	evs := make([]Event, n)
	for i, id := range keys.order() {
		at := ends[id]
		evs[i] = Event{Dets: list(at[0], at[1]), Flags: list(at[1], at[2]), Obs: list(at[2], at[3]), P: prob[id]}
	}
	return evs
}

// appendFootprintKey appends the footprint key of an event: its
// detectors, flags and observables, each id as four little-endian
// bytes, the three lists separated by '|'. Events and projected events
// are ordered by the bytes of this key.
func appendFootprintKey(b []byte, dets, flags, obs []int) []byte {
	b = appendIDs(b, dets)
	b = append(b, '|')
	b = appendIDs(b, flags)
	b = append(b, '|')
	return appendIDs(b, obs)
}

// appendIDs appends each id as four little-endian bytes.
func appendIDs(b []byte, ids []int) []byte {
	for _, v := range ids {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}
