package decoder

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/dem"
)

// latticePairs enumerates the restricted lattices L_RG, L_RB, L_GB.
var latticePairs = [3][2]int{{0, 1}, {0, 2}, {1, 2}}

// Restriction is the flagged Restriction decoder for color codes: it
// matches flipped syndrome bits on the three color-restricted lattices,
// removes doubly-selected flag edges immediately (the paper's key rule),
// and lifts the remaining matched edges to Pauli-frame corrections.
//
// Like MWPM, it caches the flagless shortest-path trees of each
// restricted lattice (weights are fixed per run unless flags fire) and
// draws all per-shot state from a caller-owned DecodeScratch.
type Restriction struct {
	Basis css.Basis
	// UseFlags enables flag-conditioned representative selection in the
	// matching stage.
	UseFlags bool
	// FlagLifting enables the paper's flag handling outside the matching
	// stage (flag-conditioned Pauli frames and the double-appearance
	// rule). When false the decoder behaves like Chamberland et al.'s,
	// which "only handles flag edges in the MWPM stage".
	FlagLifting bool

	classTable
	id string // kind+config tag attached to decode errors

	detColor []int // detector -> color, or -1 off this basis's syndrome

	lat [3]matchGraph // the restricted lattices, in latticePairs order
}

// NewRestriction builds the decoder for one basis of a color-code model.
func NewRestriction(model *dem.Model, basis css.Basis, pM float64, useFlags, flagLifting bool) (*Restriction, error) {
	events := model.Project(basis)
	// Propagation errors flip many plaquettes at once; decompose them
	// into existing atoms of at most three detectors (one per color) so
	// every class is representable on the restricted lattices.
	classes := dem.BuildClasses(decomposeAtoms(events, 3, 12))
	d := &Restriction{
		Basis:       basis,
		UseFlags:    useFlags,
		FlagLifting: flagLifting,
		classTable:  newClassTable(classes, pM, len(model.Circuit.Observables)),
		id:          fmt.Sprintf("restriction(basis=%c flags=%v lifting=%v pM=%g)", basis, useFlags, flagLifting, pM),
		detColor:    make([]int, len(model.Circuit.Detectors)),
	}
	for di, det := range model.Circuit.Detectors {
		d.detColor[di] = -1
		if !det.IsFlag && det.Basis == basis {
			if det.Color < 0 || det.Color > 2 {
				return nil, fmt.Errorf("decoder: detector %d lacks a color", di)
			}
			d.detColor[di] = det.Color
		}
	}
	for li := range d.lat {
		d.lat[li] = newMatchGraph()
	}
	for ci, cl := range classes {
		for li, pair := range latticePairs {
			// A class is an edge of the lattice when exactly two of its
			// detectors carry the lattice's colors.
			var proj [2]int
			n := 0
			for _, det := range cl.Dets {
				if c := d.detColor[det]; c == pair[0] || c == pair[1] {
					if n < 2 {
						proj[n] = det
					}
					n++
				}
			}
			if n != 2 {
				continue
			}
			g := &d.lat[li]
			u := g.vertex(proj[0])
			g.addEdge(u, g.vertex(proj[1]), ci)
		}
	}
	for li := range d.lat {
		d.lat[li].cacheTrees(d.baseWeight)
	}
	return d, nil
}

// Decode maps a shot's defect list (see ScratchDecoder) to predicted
// observable flips. It allocates a private scratch per call; hot loops
// should hold a DecodeScratch and call DecodeWith.
func (d *Restriction) Decode(defects []int32) ([]bool, error) {
	return d.DecodeWith(NewScratch(), defects)
}

// DecodeWith is Decode drawing every per-shot buffer from sc. The
// returned slice aliases sc and is valid until sc's next use. Panics
// from the matching layer are recovered into returned errors.
//
//fpn:hotpath
func (d *Restriction) DecodeWith(sc *DecodeScratch, defects []int32) (corr []bool, err error) {
	defer annotateErr(d.id, &err)
	defer Recover(&err)
	sc.reset(d.numObs)
	rs := &sc.rest
	rs.ensure(len(d.classes), len(d.detColor))
	correction := sc.correction
	rs.flipped = rs.flipped[:0]
	for _, id := range defects {
		if uint(id) < uint(len(d.detColor)) && d.detColor[id] >= 0 {
			rs.flipped = append(rs.flipped, int(id))
		}
	}
	flipped := rs.flipped
	if d.UseFlags {
		d.readFlags(sc, defects)
	}
	nFlags := sc.flags.Len()
	if len(flipped) == 0 {
		// No parity check fired: only the empty-syndrome equivalence
		// class (flag-only propagation errors) can explain the flags.
		if d.UseFlags && d.FlagLifting {
			applyEmptyClass(d.empty, &sc.flags, correction)
		}
		return correction, nil
	}
	rep := d.baseRep
	weight := d.baseWeight
	if nFlags > 0 {
		// The restriction decoder keeps base −log π weights and adds only
		// the flag-similarity penalty (Equation 9's pM term); the
		// π^{|σ|−1} exponent is specific to the pairwise matching graph
		// and would double-count 3-detector data classes here.
		rep, weight = d.flagOverlay(sc)
		wM := weightOf(d.pM)
		for ci := range d.classes {
			weight[ci] = d.baseWeight[ci] + float64(nFlags)*wM
		}
		for _, ci := range sc.adjusted.keys() {
			r, diff := d.classes[ci].Select(&sc.flags)
			rep[ci] = r
			weight[ci] = weightOf(r.P) + float64(diff)*wM
		}
	}
	// Matching on the three restricted lattices; EM counts class picks.
	for li, pair := range latticePairs {
		g := &d.lat[li]
		rs.latSrc = rs.latSrc[:0]
		for _, det := range flipped {
			c := d.detColor[det]
			if c != pair[0] && c != pair[1] {
				continue
			}
			vi := g.vert(det)
			if vi < 0 {
				return nil, fmt.Errorf("decoder: flipped detector %d not in lattice %d", det, li)
			}
			rs.latSrc = append(rs.latSrc, vi)
		}
		src := rs.latSrc
		if len(src) == 0 {
			continue
		}
		if len(src)%2 != 0 {
			return nil, fmt.Errorf("decoder: odd syndrome weight %d in restricted lattice %d", len(src), li)
		}
		dist, prev := g.sourceTrees(sc, src, weight, nFlags > 0)
		mate, err := minWeightPerfectWS(sc, g.matchingInstance(sc, src, dist), sc.medges)
		if err != nil {
			return nil, fmt.Errorf("decoder: lattice %d matching: %w", li, err)
		}
		for i := range src {
			j := mate[i]
			if j < i {
				continue
			}
			var ok bool
			if sc.path, ok = g.pathClasses(sc.path, prev[i], src[i], src[j]); !ok {
				return nil, fmt.Errorf("decoder: broken path in lattice %d", li)
			}
			for _, ci := range sc.path {
				if rs.em[ci] == 0 {
					rs.picked = append(rs.picked, ci)
				}
				rs.em[ci]++
			}
		}
	}
	// Lifting. Paper rule: flag edges appearing at least twice in EM are
	// corrected immediately and removed. Every other class picked twice
	// is applied and removed too, with or without FlagLifting, so one
	// pass serves both rules; what the applied classes leave of the
	// syndrome is the residual.
	applyClass := func(ci int) {
		r := rep[ci]
		if !d.FlagLifting {
			r = d.baseRep[ci]
		}
		for _, o := range r.Obs {
			correction[o] = !correction[o]
		}
	}
	rs.addResidual(flipped)
	for _, ci := range rs.picked {
		if rs.em[ci] >= 2 {
			applyClass(ci)
			rs.applied[ci] = true
			rs.em[ci] = 0
			rs.addResidual(d.classes[ci].Dets)
		}
	}
	if rs.nres > 0 {
		// Residual repair: find the minimum-weight set of classes
		// (preferring those a single matching picked) whose footprints
		// XOR to the residual syndrome.
		for _, ci := range d.coverResidual(rs, weight) {
			applyClass(ci)
		}
	}
	return correction, nil
}

// ensure sizes a scratch's Restriction tables for a decoder with the
// given class and detector counts, clearing what the last shot touched.
func (rs *restScratch) ensure(classes, dets int) {
	for _, ci := range rs.picked {
		rs.em[ci] = 0
		rs.applied[ci] = false
	}
	for _, det := range rs.resDets {
		rs.residual[det] = false
	}
	rs.picked, rs.resDets, rs.nres = rs.picked[:0], rs.resDets[:0], 0
	rs.em = growInts(rs.em, classes)
	rs.applied = growBools(rs.applied, classes)
	rs.residual = growBools(rs.residual, dets)
}

// flip XORs dets into the residual syndrome.
func (rs *restScratch) flip(dets []int) {
	for _, det := range dets {
		if rs.residual[det] {
			rs.nres--
		} else {
			rs.nres++
		}
		rs.residual[det] = !rs.residual[det]
	}
}

// addResidual is flip that also records dets for the next reset. The
// repair search flips only recorded detectors, so it uses flip.
func (rs *restScratch) addResidual(dets []int) {
	rs.flip(dets)
	rs.resDets = append(rs.resDets, dets...)
}

// covers reports whether dets is a non-empty subset of the residual.
func (rs *restScratch) covers(dets []int) bool {
	if len(dets) == 0 {
		return false
	}
	for _, det := range dets {
		if !rs.residual[det] {
			return false
		}
	}
	return true
}

// repairCand is a class the residual repair may apply, with its search
// weight.
type repairCand struct {
	ci int
	w  float64
}

// coverResidual searches for a minimum-weight subset of classes whose
// detector footprints XOR exactly to the residual. Candidates are the
// classes fully contained in the residual, with classes selected by a
// single lattice matching discounted so they are preferred. The residual
// from near-distance fault patterns is small, so a bounded DFS over the
// 40 lightest candidates, at most 6 deep, suffices; an empty result
// means the repair gave up. The repair is not rare: at p ≤ 1e-3 it runs
// on 16–70% of shots (25% of [[32,12,4]] X shots at 5e-4, 70% of the
// 6.6.6 toric code's at 1e-3), so it draws every buffer from rs. The
// returned slice aliases rs.
func (d *Restriction) coverResidual(rs *restScratch, weight []float64) []int {
	rs.cands = rs.cands[:0]
	for ci := range d.classes {
		if rs.applied[ci] || !rs.covers(d.classes[ci].Dets) {
			continue
		}
		w := weight[ci]
		if rs.em[ci] > 0 {
			w /= 4 // the matchings voted for this class once
		}
		rs.cands = append(rs.cands, repairCand{ci, w})
	}
	// slices.SortFunc runs sort.Slice's pattern-defeating quicksort and
	// reads cmp only as cmp < 0, which cmp.Compare gives exactly when
	// a.w < b.w (weights are never NaN), so ties land where sort.Slice
	// puts them, without its allocations.
	slices.SortFunc(rs.cands, func(a, b repairCand) int { return cmp.Compare(a.w, b.w) })
	if len(rs.cands) > 40 {
		rs.cands = rs.cands[:40]
	}
	rs.cur, rs.best, rs.bestW = rs.cur[:0], rs.best[:0], math.Inf(1)
	d.coverFrom(rs, 0, 0)
	return rs.best
}

// coverFrom extends the partial cover rs.cur of weight w with candidates
// from index idx on, recording in rs.best each lighter complete cover.
func (d *Restriction) coverFrom(rs *restScratch, idx int, w float64) {
	if w >= rs.bestW {
		return
	}
	if rs.nres == 0 {
		rs.best = append(rs.best[:0], rs.cur...)
		rs.bestW = w
		return
	}
	if idx >= len(rs.cands) || len(rs.cur) >= 6 {
		return
	}
	for i := idx; i < len(rs.cands); i++ {
		c := rs.cands[i]
		dets := d.classes[c.ci].Dets
		if !rs.covers(dets) {
			continue
		}
		rs.flip(dets)
		rs.cur = append(rs.cur, c.ci)
		d.coverFrom(rs, i+1, w+c.w)
		rs.cur = rs.cur[:len(rs.cur)-1]
		rs.flip(dets)
	}
}
