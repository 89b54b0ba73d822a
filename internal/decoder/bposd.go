package decoder

import (
	"fmt"
	"math"
	"sort"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/gf2"
)

// BPOSD is a belief-propagation + ordered-statistics decoder operating
// directly on the projected detector error model: variables are the
// error mechanisms (equivalence-class members kept separate, so flag
// bits participate as ordinary checks), and the parity checks are the
// syndrome and flag detectors. This is the modern general-QLDPC
// decoding stack (Panteleev–Kalachev / Roffe style) included as an
// extension: unlike matching it needs no graph-like structure, so it
// also applies to the hypergraph-product codes of §VII-A.
//
// The Tanner-graph structure (slot offsets, check adjacency, prior
// LLRs) is fixed per run and precomputed at construction; per-shot
// message storage comes flattened out of a DecodeScratch, so the BP
// iteration path is allocation-free. Only the OSD-0 fallback (BP
// non-convergence) allocates.
type BPOSD struct {
	Basis css.Basis
	// Iters is the number of min-sum iterations before OSD (default 30).
	Iters int

	numObs int
	id     string  // kind+config tag attached to decode errors
	dets   []int   // row order: detector ids (syndrome + flag)
	rowOf  []int   // detector -> row, or -1
	varDet [][]int // variable -> row indices
	varObs [][]int // variable -> observables flipped
	prior  []float64
	h      *gf2.Matrix // rows = dets, cols = variables

	varOff   []int     // variable -> first message slot (len nv+1)
	priorLLR []float64 // log((1-p)/p) per variable
	rowRefs  []slotRef // flattened check adjacency
	rowOff   []int     // row -> first index into rowRefs (len rows+1)
}

// slotRef addresses one Tanner-graph edge: variable v, position k in its
// row list (message slot varOff[v]+k).
type slotRef struct{ v, k int }

// NewBPOSD builds the decoder for one syndrome basis; flag detectors are
// included as checks so the flag protocol is used implicitly.
func NewBPOSD(model *dem.Model, basis css.Basis, iters int) (*BPOSD, error) {
	if iters <= 0 {
		iters = 30
	}
	events := model.Project(basis)
	d := &BPOSD{Basis: basis, Iters: iters, numObs: len(model.Circuit.Observables), rowOf: make([]int, len(model.Circuit.Detectors))}
	d.id = fmt.Sprintf("bp-osd(basis=%c iters=%d)", basis, iters)
	for det := range d.rowOf {
		d.rowOf[det] = -1
	}
	addRow := func(det int) int {
		if d.rowOf[det] < 0 {
			d.rowOf[det] = len(d.dets)
			d.dets = append(d.dets, det)
		}
		return d.rowOf[det]
	}
	for _, ev := range events {
		var rows []int
		for _, det := range ev.Dets {
			rows = append(rows, addRow(det))
		}
		for _, f := range ev.Flags {
			rows = append(rows, addRow(f))
		}
		d.varDet = append(d.varDet, rows)
		d.varObs = append(d.varObs, append([]int(nil), ev.Obs...))
		p := ev.P
		if p < 1e-12 {
			p = 1e-12
		}
		if p > 0.49 {
			p = 0.49
		}
		d.prior = append(d.prior, p)
	}
	d.h = gf2.MatrixFromSupports(len(d.dets), len(d.varDet), transposeSupports(len(d.dets), d.varDet))
	nv := len(d.varDet)
	d.varOff = make([]int, nv+1)
	d.priorLLR = make([]float64, nv)
	for v := 0; v < nv; v++ {
		d.varOff[v+1] = d.varOff[v] + len(d.varDet[v])
		d.priorLLR[v] = math.Log((1 - d.prior[v]) / d.prior[v])
	}
	counts := make([]int, len(d.dets))
	for v := 0; v < nv; v++ {
		for _, r := range d.varDet[v] {
			counts[r]++
		}
	}
	d.rowOff = make([]int, len(d.dets)+1)
	for r := range counts {
		d.rowOff[r+1] = d.rowOff[r] + counts[r]
	}
	d.rowRefs = make([]slotRef, d.rowOff[len(d.dets)])
	fillPos := make([]int, len(d.dets))
	copy(fillPos, d.rowOff[:len(d.dets)])
	for v := 0; v < nv; v++ {
		for k, r := range d.varDet[v] {
			d.rowRefs[fillPos[r]] = slotRef{v, k}
			fillPos[r]++
		}
	}
	return d, nil
}

// transposeSupports turns per-variable row lists into per-row variable
// lists.
func transposeSupports(rows int, varDet [][]int) [][]int {
	out := make([][]int, rows)
	for v, rs := range varDet {
		for _, r := range rs {
			out[r] = append(out[r], v)
		}
	}
	return out
}

// Decode runs min-sum BP on the Tanner graph of (detectors × error
// mechanisms); if the hard decision does not reproduce the syndrome, an
// OSD-0 pass solves for the most reliable consistent error set. It
// allocates a private scratch per call; hot loops should hold a
// DecodeScratch and call DecodeWith.
func (d *BPOSD) Decode(defects []int32) ([]bool, error) {
	return d.DecodeWith(NewScratch(), defects)
}

// DecodeWith is Decode drawing the BP message storage from sc. The
// returned slice aliases sc and is valid until sc's next use. Internal
// panics are recovered into returned errors.
//
//fpn:hotpath
func (d *BPOSD) DecodeWith(sc *DecodeScratch, defects []int32) (corr []bool, err error) {
	defer annotateErr(d.id, &err)
	defer Recover(&err)
	sc.reset(d.numObs)
	correction := sc.correction
	nv := len(d.varDet)
	bp := &sc.bp
	bp.ensure(len(d.dets), nv, d.varOff[nv])
	syndrome := bp.syndrome
	clear(syndrome)
	any := false
	for _, id := range defects {
		if uint(id) < uint(len(d.rowOf)) && d.rowOf[id] >= 0 {
			syndrome[d.rowOf[id]] = true
			any = true
		}
	}
	if !any {
		return correction, nil
	}
	// Message storage indexed by (variable, position in its row list),
	// flattened at the precomputed slot offsets.
	v2c := bp.v2c
	c2v := bp.c2v
	for v := 0; v < nv; v++ {
		lo, hi := d.varOff[v], d.varOff[v+1]
		for i := lo; i < hi; i++ {
			v2c[i] = d.priorLLR[v]
			c2v[i] = 0
		}
	}
	posterior := bp.posterior
	hard := bp.hard
	for iter := 0; iter < d.Iters; iter++ {
		// Check update (min-sum with sign from syndrome).
		for r := range d.dets {
			refs := d.rowRefs[d.rowOff[r]:d.rowOff[r+1]]
			sign := 1.0
			if syndrome[r] {
				sign = -1.0
			}
			min1, min2 := math.Inf(1), math.Inf(1)
			arg1 := -1
			prod := sign
			for i, ref := range refs {
				m := v2c[d.varOff[ref.v]+ref.k]
				if m < 0 {
					prod = -prod
				}
				a := math.Abs(m)
				if a < min1 {
					min2 = min1
					min1 = a
					arg1 = i
				} else if a < min2 {
					min2 = a
				}
			}
			for i, ref := range refs {
				mag := min1
				if i == arg1 {
					mag = min2
				}
				s := prod
				if v2c[d.varOff[ref.v]+ref.k] < 0 {
					s = -s
				}
				c2v[d.varOff[ref.v]+ref.k] = 0.75 * s * mag // normalized min-sum
			}
		}
		// Variable update and hard decision.
		satisfied := true
		for v := 0; v < nv; v++ {
			total := d.priorLLR[v]
			lo, hi := d.varOff[v], d.varOff[v+1]
			for i := lo; i < hi; i++ {
				total += c2v[i]
			}
			posterior[v] = total
			hard[v] = total < 0
			for i := lo; i < hi; i++ {
				v2c[i] = total - c2v[i]
			}
		}
		// Syndrome check for early exit.
		for r := range d.dets {
			par := false
			for _, ref := range d.rowRefs[d.rowOff[r]:d.rowOff[r+1]] {
				if hard[ref.v] {
					par = !par
				}
			}
			if par != syndrome[r] {
				satisfied = false
				break
			}
		}
		if satisfied {
			for v := 0; v < nv; v++ {
				if hard[v] {
					for _, o := range d.varObs[v] {
						correction[o] = !correction[o]
					}
				}
			}
			return correction, nil
		}
	}
	return d.osd0(syndrome, posterior, hard, correction), nil
}

// osd0 is the ordered-statistics fallback for BP non-convergence: order
// variables by reliability (most-likely-error first) and solve H·e = s
// on the reliable information set. BP failed to converge for this shot,
// so this cold path is rare and — unlike the BP iterations above — may
// allocate.
//
//fpnvet:coldpath OSD fallback runs on the rare non-converged shot; the alloc gate only bounds its frequency
func (d *BPOSD) osd0(syndrome []bool, posterior []float64, hard []bool, correction []bool) []bool {
	nv := len(d.varDet)
	order := make([]int, nv)
	for v := range order {
		order[v] = v
	}
	sort.Slice(order, func(i, j int) bool { return posterior[order[i]] < posterior[order[j]] })
	perm := gf2.NewMatrix(d.h.Rows(), nv)
	for newCol, v := range order {
		for _, r := range d.varDet[v] {
			perm.Set(r, newCol, true)
		}
	}
	s := gf2.NewVec(d.h.Rows())
	for r := 0; r < len(d.dets); r++ {
		if syndrome[r] {
			s.Set(r, true)
		}
	}
	sol, ok := gf2.Solve(perm, s)
	if !ok {
		// The syndrome is outside the column space (should not happen for
		// a complete error model); return the BP hard decision.
		for v := 0; v < nv; v++ {
			if hard[v] {
				for _, o := range d.varObs[v] {
					correction[o] = !correction[o]
				}
			}
		}
		return correction
	}
	for _, newCol := range sol.Support() {
		v := order[newCol]
		for _, o := range d.varObs[v] {
			correction[o] = !correction[o]
		}
	}
	return correction
}
