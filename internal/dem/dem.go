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
package dem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

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
//
// The backward pass stores one footprint id per fault. Probabilities
// then fold per id in forward fault order, because the XOR-combine
// p ← p(1−q) + q(1−p) is order-sensitive in floating point.
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
			flip(measMask[m], d)
		}
	}
	for o, obs := range c.Observables {
		for _, m := range obs {
			flip(measMask[m], nd+o)
		}
	}

	sx, sz := rows(c.NumQubits, w), rows(c.NumQubits, w)
	fp := make([]uint64, w)
	key := make([]byte, 8*w)
	ids := map[string]int32{}
	var footprints []string // little-endian footprint words, by id
	faultID := make([]int32, nFaults)
	undetectable := false
	for oi := len(c.Ops) - 1; oi >= 0; oi-- {
		op := c.Ops[oi]
		k := faultBase[oi]
		eachFault(op, measBase[oi], func(s site) {
			if s.meas >= 0 {
				copy(fp, measMask[s.meas])
			} else {
				clear(fp)
				xorPauli(fp, sx[s.qa], sz[s.qa], s.pa)
				xorPauli(fp, sx[s.qb], sz[s.qb], s.pb)
			}
			id := int32(-1)
			if anyBelow(fp, nd) {
				for i, v := range fp {
					binary.LittleEndian.PutUint64(key[8*i:], v)
				}
				var ok bool
				if id, ok = ids[string(key)]; !ok {
					id = int32(len(footprints))
					footprints = append(footprints, string(key))
					ids[footprints[id]] = id
				}
			} else if anyBelow(fp, 64*w) {
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
	prob := make([]float64, len(footprints))
	for oi, op := range c.Ops {
		k := faultBase[oi]
		eachFault(op, measBase[oi], func(s site) {
			if id := faultID[k]; id >= 0 {
				prob[id] = prob[id]*(1-s.p) + s.p*(1-prob[id])
			}
			k++
		})
	}
	return &Model{Circuit: c, Events: events(c, footprints, prob)}, nil
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
func reverseOp(op circuit.Op, measBase int, sx, sz, measMask [][]uint64) {
	switch op.Kind {
	case circuit.OpCX:
		// Forward, X spreads control→target and Z target→control.
		for i := len(op.Pairs) - 1; i >= 0; i-- {
			c, t := op.Pairs[i][0], op.Pairs[i][1]
			xorInto(sx[c], sx[t])
			xorInto(sz[t], sz[c])
		}
	case circuit.OpH:
		for _, q := range op.Qubits {
			sx[q], sz[q] = sz[q], sx[q]
		}
	case circuit.OpReset:
		for _, q := range op.Qubits {
			clear(sx[q])
			clear(sz[q])
		}
	case circuit.OpMR, circuit.OpM:
		for i := len(op.Qubits) - 1; i >= 0; i-- {
			q := op.Qubits[i]
			if op.Kind == circuit.OpMR {
				copy(sx[q], measMask[measBase+i])
			} else {
				// M leaves the X frame in place for later gates.
				xorInto(sx[q], measMask[measBase+i])
			}
			clear(sz[q])
		}
	}
}

// rows returns n zeroed rows of w words carved from one allocation.
func rows(n, w int) [][]uint64 {
	flat := make([]uint64, n*w)
	r := make([][]uint64, n)
	for i := range r {
		r[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	return r
}

func flip(row []uint64, col int) { row[col/64] ^= 1 << (uint(col) % 64) }

func xorInto(dst, src []uint64) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// xorPauli adds the footprint of Pauli p (0=I, 1=X, 2=Y, 3=Z) given the
// qubit's X and Z sensitivity rows.
func xorPauli(fp, x, z []uint64, p int) {
	if p == 1 || p == 2 {
		xorInto(fp, x)
	}
	if p == 2 || p == 3 {
		xorInto(fp, z)
	}
}

// anyBelow reports whether any of the first n columns of fp is set.
func anyBelow(fp []uint64, n int) bool {
	for i := 0; i < n/64; i++ {
		if fp[i] != 0 {
			return true
		}
	}
	return n%64 != 0 && fp[n/64]&(1<<(uint(n)%64)-1) != 0
}

// events decodes each footprint into an Event and returns them sorted
// by footprint key. All index lists share one backing array.
func events(c *circuit.Circuit, footprints []string, prob []float64) []Event {
	if len(footprints) == 0 {
		return nil
	}
	nd := len(c.Detectors)
	total := 0
	for _, f := range footprints {
		for i := 0; i < len(f); i++ {
			total += bits.OnesCount8(f[i])
		}
	}
	arena := make([]int, 0, total)
	keep := func(s []int) []int {
		if len(s) == 0 {
			return nil
		}
		from := len(arena)
		arena = append(arena, s...)
		return arena[from:len(arena):len(arena)]
	}
	evs := make([]Event, len(footprints))
	keys := make([]string, len(footprints))
	var dets, flags, obs []int
	for id, f := range footprints {
		dets, flags, obs = dets[:0], flags[:0], obs[:0]
		// Byte i of a little-endian footprint holds columns 8i..8i+7.
		for i := 0; i < len(f); i++ {
			for b := f[i]; b != 0; b &= b - 1 {
				col := 8*i + bits.TrailingZeros8(b)
				switch {
				case col >= nd:
					obs = append(obs, col-nd)
				case c.Detectors[col].IsFlag:
					flags = append(flags, col)
				default:
					dets = append(dets, col)
				}
			}
		}
		evs[id] = Event{Dets: keep(dets), Flags: keep(flags), Obs: keep(obs), P: prob[id]}
		keys[id] = footprintKey(dets, flags, obs)
	}
	sort.Sort(byKey{evs, keys})
	return evs
}

// byKey sorts events by their footprint keys.
type byKey struct {
	evs  []Event
	keys []string
}

func (b byKey) Len() int           { return len(b.evs) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.evs[i], b.evs[j] = b.evs[j], b.evs[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

func footprintKey(dets, flags, obs []int) string {
	b := make([]byte, 0, 4*(len(dets)+len(flags)+len(obs))+3)
	for _, d := range dets {
		b = appendInt(b, d)
	}
	b = append(b, '|')
	for _, f := range flags {
		b = appendInt(b, f)
	}
	b = append(b, '|')
	for _, o := range obs {
		b = appendInt(b, o)
	}
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
