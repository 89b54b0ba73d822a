// Package sim is the Pauli-frame sampler (the Stim substitute): it
// propagates X/Z error frames through Clifford circuits with 64 shots
// bit-packed per machine word, samples the paper's noise channels with
// geometric skip-sampling, and reads out detector and observable flips.
// Sampling runs through BlockSampler, which gives every 64-shot word
// its own RNG stream. A deterministic injection mode plants chosen
// faults in chosen lanes; package dem's tests use it as the forward
// reference for the detector-error-model extraction.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/fpn/flagproxy/internal/circuit"
)

// Result holds per-shot detector and observable flip bits, packed 64
// shots per word.
//
// Whole-word readers (the batch decode path) rely on two guarantees
// that resultInto enforces on every materialization: lanes at or past
// Shots in the final active word are zero, and — because a reused
// Result's rows keep the capacity of the largest run they ever held —
// words at or past Words are zero too. Nothing past Shots is ever
// garbage, whether the row is read bit-by-bit or word-by-word.
type Result struct {
	Shots       int
	Words       int
	Detectors   [][]uint64 // [detector][word]
	Observables [][]uint64
}

// DetectorBit reports whether detector d fired in shot s. Shot indexes
// outside [0, Shots) are a caller bug — typically an off-by-one against
// a partial tail block — and panic with the offending index rather than
// silently reading a masked (or stale) lane.
func (r *Result) DetectorBit(d, s int) bool {
	if uint(s) >= uint(r.Shots) {
		panic(fmt.Sprintf("sim: DetectorBit(%d, %d): shot %d outside [0, %d)", d, s, s, r.Shots))
	}
	return r.Detectors[d][s/64]>>(uint(s)%64)&1 == 1
}

// ObservableBit reports whether observable o flipped in shot s. Like
// DetectorBit it panics, naming the shot index, when s is out of range.
func (r *Result) ObservableBit(o, s int) bool {
	if uint(s) >= uint(r.Shots) {
		panic(fmt.Sprintf("sim: ObservableBit(%d, %d): shot %d outside [0, %d)", o, s, s, r.Shots))
	}
	return r.Observables[o][s/64]>>(uint(s)%64)&1 == 1
}

// DetectorWord returns the 64-lane word w of detector d's row. Lanes at
// or past Shots are guaranteed zero (see the Result contract).
func (r *Result) DetectorWord(d, w int) uint64 { return r.Detectors[d][w] }

// ObservableWord returns the 64-lane word w of observable o's row, with
// the same tail-lane guarantee as DetectorWord.
func (r *Result) ObservableWord(o, w int) uint64 { return r.Observables[o][w] }

// Pauli is a sparse Pauli operator used for deterministic injection.
type Pauli struct {
	Qubit int
	X, Z  bool
}

// Injection plants a Pauli error (or measurement flip) in a given lane
// immediately after op OpIndex executes.
type Injection struct {
	OpIndex int
	Lane    int
	Paulis  []Pauli
	// IsMeasFlip flips measurement record FlipMeas instead of injecting a
	// Pauli (used for misread faults). The flip is applied after the
	// whole circuit runs, so it cannot be clobbered by the measurement.
	IsMeasFlip bool
	FlipMeas   int
}

type frameSim struct {
	c        *circuit.Circuit
	words    int // words active in the current run
	capWords int // words allocated (capacity ceiling)
	shots    int
	fx, fz   [][]uint64
	meas     [][]uint64

	// wordRngs gives every 64-shot word its own RNG stream, so a
	// block's outcome is independent of how blocks are batched into
	// passes. nil in RunDeterministic, which draws nothing.
	wordRngs []*rand.Rand
	// cur is the active word's stream, the one noise channels draw from.
	cur *rand.Rand

	measBases []int // lazily computed first-measurement index per op
}

// RunDeterministic executes the circuit with all noise channels disabled
// and the given faults injected; lane l of the result reflects exactly
// the faults with Lane == l.
func RunDeterministic(c *circuit.Circuit, shots int, inj []Injection) *Result {
	fs := newFrameSim(c, shots)
	byOp := map[int][]Injection{}
	var measFlips []Injection
	for _, in := range inj {
		if in.IsMeasFlip {
			measFlips = append(measFlips, in)
			continue
		}
		byOp[in.OpIndex] = append(byOp[in.OpIndex], in)
	}
	for oi, op := range c.Ops {
		fs.apply(oi, op, false, byOp[oi])
	}
	for _, in := range measFlips {
		setBit(fs.meas[in.FlipMeas], in.Lane)
	}
	return fs.result()
}

func newFrameSim(c *circuit.Circuit, shots int) *frameSim {
	words := (shots + 63) / 64
	fs := &frameSim{c: c, words: words, capWords: words, shots: shots}
	fs.fx = make([][]uint64, c.NumQubits)
	fs.fz = make([][]uint64, c.NumQubits)
	for q := range fs.fx {
		fs.fx[q] = make([]uint64, words)
		fs.fz[q] = make([]uint64, words)
	}
	fs.meas = make([][]uint64, c.NumMeas)
	for m := range fs.meas {
		fs.meas[m] = make([]uint64, words)
	}
	return fs
}

// reset rewinds the simulator for a fresh run of shots lanes (at most
// the allocated capacity), reusing every buffer.
func (fs *frameSim) reset(shots int) {
	fs.shots = shots
	fs.words = (shots + 63) / 64
	for q := range fs.fx {
		clear(fs.fx[q])
		clear(fs.fz[q])
	}
}

func (fs *frameSim) result() *Result {
	r := &Result{}
	fs.resultInto(r)
	return r
}

// resultInto accumulates detector and observable rows into r, reusing
// r's buffers when it has been filled by this frameSim before.
func (fs *frameSim) resultInto(r *Result) {
	r.Shots = fs.shots
	r.Words = fs.words
	if r.Detectors == nil {
		r.Detectors = make([][]uint64, len(fs.c.Detectors))
		for d := range r.Detectors {
			r.Detectors[d] = make([]uint64, fs.capWords)
		}
		r.Observables = make([][]uint64, len(fs.c.Observables))
		for o := range r.Observables {
			r.Observables[o] = make([]uint64, fs.capWords)
		}
	}
	for d, det := range fs.c.Detectors {
		acc := r.Detectors[d][:fs.words]
		clear(acc)
		for _, m := range det.Meas {
			row := fs.meas[m]
			for w := range acc {
				acc[w] ^= row[w]
			}
		}
	}
	for o, obs := range fs.c.Observables {
		acc := r.Observables[o][:fs.words]
		clear(acc)
		for _, m := range obs {
			row := fs.meas[m]
			for w := range acc {
				acc[w] ^= row[w]
			}
		}
	}
	// Tail-lane guarantee: a reused Result's rows keep the capacity of
	// the largest run they ever held, so a shorter run would otherwise
	// leave the previous run's bits in the words past fs.words — garbage
	// a whole-word reader (the batch decode path, or anything ranging
	// over a full row) would see past Shots. Mask the unused high lanes
	// of the final active word and zero every capacity word beyond it.
	if fs.words == 0 {
		return
	}
	tailMask := ^uint64(0)
	if tail := uint(fs.shots) % 64; tail != 0 {
		tailMask = (uint64(1) << tail) - 1
	}
	for d := range r.Detectors {
		row := r.Detectors[d]
		row[fs.words-1] &= tailMask
		clear(row[fs.words:])
	}
	for o := range r.Observables {
		row := r.Observables[o]
		row[fs.words-1] &= tailMask
		clear(row[fs.words:])
	}
}

// forEachLane visits lanes selected i.i.d. with probability p, using
// geometric skip-sampling so the cost is proportional to the number of
// hits rather than the number of shots. Every 64-lane word is scanned
// with its own RNG stream.
func (fs *frameSim) forEachLane(p float64, f func(lane int)) {
	if p <= 0 {
		return
	}
	logq := math.Log1p(-p)
	for wi := 0; wi < fs.words; wi++ {
		lo := wi * 64
		hi := min(lo+64, fs.shots)
		fs.cur = fs.wordRngs[wi]
		if p >= 1 {
			for l := lo; l < hi; l++ {
				f(l)
			}
			continue
		}
		geomScan(fs.cur, logq, lo, hi, f)
	}
}

// geomScan visits lanes of [lo, hi) selected i.i.d. with hit
// probability p = 1 - exp(logq) by geometric skip-sampling on rng. The
// skip is compared with the lanes left before it is converted: at tiny
// p it can exceed every int, and the conversion would wrap negative.
func geomScan(rng *rand.Rand, logq float64, lo, hi int, f func(lane int)) {
	l := lo
	for {
		skip := math.Log(1-rng.Float64()) / logq
		if skip >= float64(hi-l) {
			return
		}
		l += int(skip)
		f(l)
		l++
	}
}

func setBit(row []uint64, lane int) { row[lane/64] ^= 1 << (uint(lane) % 64) }

func (fs *frameSim) apply(opIndex int, op circuit.Op, noisy bool, inj []Injection) {
	switch op.Kind {
	case circuit.OpCX:
		for _, p := range op.Pairs {
			c, t := p[0], p[1]
			for w := 0; w < fs.words; w++ {
				fs.fx[t][w] ^= fs.fx[c][w]
				fs.fz[c][w] ^= fs.fz[t][w]
			}
		}
	case circuit.OpH:
		for _, q := range op.Qubits {
			fs.fx[q], fs.fz[q] = fs.fz[q], fs.fx[q]
		}
	case circuit.OpReset:
		for _, q := range op.Qubits {
			for w := 0; w < fs.words; w++ {
				fs.fx[q][w] = 0
				fs.fz[q][w] = 0
			}
		}
	case circuit.OpMR, circuit.OpM:
		meas := fs.measBase(opIndex)
		for i, q := range op.Qubits {
			m := meas + i
			copy(fs.meas[m], fs.fx[q])
			if noisy && op.FlipProb > 0 {
				fs.forEachLane(op.FlipProb, func(l int) { setBit(fs.meas[m], l) })
			}
			if op.Kind == circuit.OpMR {
				for w := 0; w < fs.words; w++ {
					fs.fx[q][w] = 0
					fs.fz[q][w] = 0
				}
			} else {
				// Terminal measurement: frame beyond is irrelevant.
				for w := 0; w < fs.words; w++ {
					fs.fz[q][w] = 0
				}
			}
		}
	case circuit.OpPauli1:
		if noisy {
			for _, q := range op.Qubits {
				fs.forEachLane(op.PX, func(l int) { setBit(fs.fx[q], l) })
				fs.forEachLane(op.PY, func(l int) { setBit(fs.fx[q], l); setBit(fs.fz[q], l) })
				fs.forEachLane(op.PZ, func(l int) { setBit(fs.fz[q], l) })
			}
		}
	case circuit.OpDepol1:
		if noisy {
			for _, q := range op.Qubits {
				fs.forEachLane(op.P, func(l int) {
					switch fs.cur.Intn(3) {
					case 0:
						setBit(fs.fx[q], l)
					case 1:
						setBit(fs.fx[q], l)
						setBit(fs.fz[q], l)
					case 2:
						setBit(fs.fz[q], l)
					}
				})
			}
		}
	case circuit.OpDepol2:
		if noisy {
			for _, pr := range op.Pairs {
				a, b := pr[0], pr[1]
				fs.forEachLane(op.P, func(l int) {
					k := 1 + fs.cur.Intn(15) // 2-qubit Pauli index, base 4, skipping II
					pa, pb := k/4, k%4
					fs.injectPauliIndex(a, pa, l)
					fs.injectPauliIndex(b, pb, l)
				})
			}
		}
	case circuit.OpXFlip:
		if noisy {
			for _, q := range op.Qubits {
				fs.forEachLane(op.P, func(l int) { setBit(fs.fx[q], l) })
			}
		}
	}
	// Deterministic injections occur after the op's own action.
	for _, in := range inj {
		for _, p := range in.Paulis {
			if p.X {
				setBit(fs.fx[p.Qubit], in.Lane)
			}
			if p.Z {
				setBit(fs.fz[p.Qubit], in.Lane)
			}
		}
	}
}

// injectPauliIndex applies Pauli index 0=I,1=X,2=Y,3=Z to lane l.
func (fs *frameSim) injectPauliIndex(q, idx, l int) {
	switch idx {
	case 1:
		setBit(fs.fx[q], l)
	case 2:
		setBit(fs.fx[q], l)
		setBit(fs.fz[q], l)
	case 3:
		setBit(fs.fz[q], l)
	}
}

// measBase returns the measurement index of the first measurement of the
// op at opIndex, caching the scan.
func (fs *frameSim) measBase(opIndex int) int {
	if fs.measBases == nil {
		fs.measBases = make([]int, len(fs.c.Ops))
		n := 0
		for i, op := range fs.c.Ops {
			fs.measBases[i] = n
			if op.Kind == circuit.OpMR || op.Kind == circuit.OpM {
				n += len(op.Qubits)
			}
		}
	}
	return fs.measBases[opIndex]
}
