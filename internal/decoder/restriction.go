package decoder

import (
	"fmt"
	"math"
	"sort"

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

	classes []dem.Class
	pM      float64
	numObs  int
	id      string // kind+config tag attached to decode errors

	detColor map[int]int
	detAll   []int // sorted syndrome detectors of this basis

	// Per lattice: vertices, adjacency, edges referencing classes.
	latVerts  [3][]int
	latVertOf [3]map[int]int
	latEdges  [3][]graphEdge
	latAdj    [3][][]int

	baseRep    []dem.ProjEvent
	baseWeight []float64
	flagIndex  map[int][]int
	empty      *dem.Class // empty-syndrome equivalence class, if any
	flagAll    []int      // every flag detector mentioned by any class

	spt [3]*sptCache // base-weight trees per restricted lattice
}

// NewRestriction builds the decoder for one basis of a color-code model.
func NewRestriction(model *dem.Model, basis css.Basis, pM float64, useFlags, flagLifting bool) (*Restriction, error) {
	events := model.Project(basis)
	// Propagation errors flip many plaquettes at once; decompose them
	// into existing atoms of at most three detectors (one per color) so
	// every class is representable on the restricted lattices.
	events = decomposeAtoms(events, 3, 12)
	classes := dem.BuildClasses(events)
	d := &Restriction{
		Basis:       basis,
		UseFlags:    useFlags,
		FlagLifting: flagLifting,
		classes:     classes,
		pM:          pM,
		numObs:      len(model.Circuit.Observables),
		detColor:    map[int]int{},
		flagIndex:   map[int][]int{},
	}
	d.id = fmt.Sprintf("restriction(basis=%c flags=%v lifting=%v pM=%g)", basis, useFlags, flagLifting, pM)
	for di, det := range model.Circuit.Detectors {
		if !det.IsFlag && det.Basis == basis {
			if det.Color < 0 || det.Color > 2 {
				return nil, fmt.Errorf("decoder: detector %d lacks a color", di)
			}
			d.detColor[di] = det.Color
			d.detAll = append(d.detAll, di)
		}
	}
	sort.Ints(d.detAll)
	for li := range latticePairs {
		d.latVertOf[li] = map[int]int{}
	}
	for ci, cl := range classes {
		if len(cl.Dets) == 0 {
			d.empty = &classes[ci]
			continue
		}
		for li, pair := range latticePairs {
			var proj []int
			for _, det := range cl.Dets {
				c := d.detColor[det]
				if c == pair[0] || c == pair[1] {
					proj = append(proj, det)
				}
			}
			if len(proj) != 2 {
				continue // not representable as an edge of this lattice
			}
			var vs [2]int
			for k, det := range proj {
				vi, ok := d.latVertOf[li][det]
				if !ok {
					vi = len(d.latVerts[li])
					d.latVertOf[li][det] = vi
					d.latVerts[li] = append(d.latVerts[li], det)
				}
				vs[k] = vi
			}
			for len(d.latAdj[li]) < len(d.latVerts[li]) {
				d.latAdj[li] = append(d.latAdj[li], nil)
			}
			ei := len(d.latEdges[li])
			d.latEdges[li] = append(d.latEdges[li], graphEdge{u: vs[0], v: vs[1], class: ci})
			d.latAdj[li][vs[0]] = append(d.latAdj[li][vs[0]], ei)
			d.latAdj[li][vs[1]] = append(d.latAdj[li][vs[1]], ei)
		}
	}
	d.flagAll = collectFlagList(classes)
	d.baseRep = make([]dem.ProjEvent, len(classes))
	d.baseWeight = make([]float64, len(classes))
	for ci := range classes {
		rep, p := classes[ci].Representative(nil, pM)
		d.baseRep[ci] = rep
		d.baseWeight[ci] = weightOf(p)
		seen := map[int]bool{}
		for _, m := range classes[ci].Members {
			for _, f := range m.Flags {
				if !seen[f] {
					seen[f] = true
					d.flagIndex[f] = append(d.flagIndex[f], ci)
				}
			}
		}
	}
	for li := range latticePairs {
		li := li
		nv := len(d.latAdj[li])
		d.spt[li] = newSPTCache(nv, func(s int) ([]float64, []int) {
			dist := make([]float64, nv)
			prev := make([]int, nv)
			var pq floatHeap
			dijkstraInto(s, d.baseWeight, d.latEdges[li], d.latAdj[li], dist, prev, &pq)
			return dist, prev
		})
	}
	return d, nil
}

// Decode maps detector bits to predicted observable flips. It allocates
// a private scratch per call; hot loops should hold a DecodeScratch and
// call DecodeWith.
func (d *Restriction) Decode(detBit func(int) bool) ([]bool, error) {
	return d.DecodeWith(NewScratch(), detBit)
}

// DecodeWith is Decode drawing every per-shot buffer from sc. The
// returned slice aliases sc and is valid until sc's next use. Panics
// from the matching layer are recovered into returned errors.
//
//fpn:hotpath
func (d *Restriction) DecodeWith(sc *DecodeScratch, detBit func(int) bool) (corr []bool, err error) {
	defer annotateErr(d.id, &err)
	defer Recover(&err)
	sc.reset(d.numObs)
	rs := &sc.rest
	rs.ensure()
	correction := sc.correction
	rs.flipped = rs.flipped[:0]
	for _, det := range d.detAll {
		if detBit(det) {
			rs.flipped = append(rs.flipped, det)
		}
	}
	flipped := rs.flipped
	if d.UseFlags {
		for _, f := range d.flagAll {
			if detBit(f) {
				sc.flags.Add(f)
			}
		}
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
		rep, weight = sc.ensureClassOverlay(len(d.classes))
		copy(rep, d.baseRep)
		wM := weightOf(d.pM)
		for ci := range d.classes {
			weight[ci] = d.baseWeight[ci] + float64(nFlags)*wM
		}
		for _, f := range sc.flags.Flags() {
			for _, ci := range d.flagIndex[f] {
				sc.adjusted.add(ci)
			}
		}
		for _, ci := range sc.adjusted.keys() {
			r, diff := d.classes[ci].Select(&sc.flags)
			rep[ci] = r
			weight[ci] = weightOf(r.P) + float64(diff)*wM
		}
	}
	// Matching on the three restricted lattices; EM counts class picks.
	em := rs.em
	for li, pair := range latticePairs {
		rs.latSrc = rs.latSrc[:0]
		for _, det := range flipped {
			c := d.detColor[det]
			if c != pair[0] && c != pair[1] {
				continue
			}
			vi, ok := d.latVertOf[li][det]
			if !ok {
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
		k := len(src)
		dists, prevs := sc.ensureTreeTables(k)
		if nFlags > 0 {
			nv := len(d.latAdj[li])
			sc.dij.ensure(k, nv)
			for i, s := range src {
				di, pi := sc.dij.row(i)
				dijkstraInto(s, weight, d.latEdges[li], d.latAdj[li], di, pi, &sc.dij.heap)
				dists[i], prevs[i] = di, pi
			}
		} else {
			for i, s := range src {
				dists[i], prevs[i] = d.spt[li].tree(s)
			}
		}
		sc.medges = sc.medges[:0]
		for i := 0; i < len(src); i++ {
			for j := i + 1; j < len(src); j++ {
				if w := dists[i][src[j]]; !math.IsInf(w, 1) {
					sc.medges = append(sc.medges, matchEdge{i, j, w})
				}
			}
		}
		mate, err := minWeightPerfectWS(sc, len(src), sc.medges)
		if err != nil {
			return nil, fmt.Errorf("decoder: lattice %d matching: %w", li, err)
		}
		for i := range src {
			j := mate[i]
			if j < i {
				continue
			}
			cur := src[j]
			for cur != src[i] {
				ei := prevs[i][cur]
				if ei < 0 {
					return nil, fmt.Errorf("decoder: broken path in lattice %d", li)
				}
				e := d.latEdges[li][ei]
				em[e.class]++
				if e.u == cur {
					cur = e.v
				} else {
					cur = e.u
				}
			}
		}
	}
	// Lifting.
	applyClass := func(ci int) {
		r := rep[ci]
		if !d.FlagLifting {
			r = d.baseRep[ci]
		}
		for _, o := range r.Obs {
			correction[o] = !correction[o]
		}
	}
	applied := rs.applied
	if d.FlagLifting {
		// Paper rule: flag edges appearing at least twice in EM are
		// corrected immediately and removed.
		//fpnvet:orderless each class toggles a disjoint set of correction bits (XOR commutes)
		for ci, count := range em {
			if count >= 2 && len(rep[ci].Flags) > 0 {
				applyClass(ci)
				applied[ci] = true
				delete(em, ci)
			}
		}
	}
	//fpnvet:orderless each class toggles its own correction bits (XOR commutes)
	for ci, count := range em {
		if count >= 2 {
			applyClass(ci)
			applied[ci] = true
			delete(em, ci)
		}
	}
	// Residual repair: classes selected by only one lattice (or missed
	// entirely) are applied greedily while they reduce the residual
	// syndrome.
	residual := rs.residual
	for _, det := range flipped {
		residual[det] = true
	}
	//fpnvet:orderless residual toggling is a commutative XOR accumulation
	for ci := range applied {
		for _, det := range d.classes[ci].Dets {
			toggle(residual, det)
		}
	}
	if len(residual) > 0 {
		// Exact-cover repair: find the minimum-weight set of classes
		// (preferring those the matchings touched) whose footprints XOR
		// to the residual syndrome.
		cover := d.coverResidual(residual, em, applied, weight)
		for _, ci := range cover {
			applyClass(ci)
		}
	}
	return correction, nil
}

// ensure lazily creates the Restriction maps of a scratch and clears
// the per-shot state.
func (rs *restScratch) ensure() {
	if rs.em == nil {
		rs.em = map[int]int{}
		rs.applied = map[int]bool{}
		rs.residual = map[int]bool{}
	}
	if len(rs.em) > 0 {
		clear(rs.em)
	}
	if len(rs.applied) > 0 {
		clear(rs.applied)
	}
	if len(rs.residual) > 0 {
		clear(rs.residual)
	}
}

// coverResidual searches for a minimum-weight subset of classes whose
// detector footprints XOR exactly to the residual. Candidates are the
// classes fully contained in the residual, with classes selected by a
// single lattice matching discounted so they are preferred. The residual
// from near-distance fault patterns is small, so a bounded DFS suffices;
// an empty result means the repair gave up. This path only runs when the
// three matchings disagree — rare at experiment noise rates — so it is
// allowed to allocate.
//
//fpnvet:coldpath residual repair runs only when the three lattice matchings disagree; the alloc gate bounds its frequency
func (d *Restriction) coverResidual(residual map[int]bool, em map[int]int, applied map[int]bool, weight []float64) []int {
	type cand struct {
		ci int
		w  float64
	}
	var cands []cand
	for ci := range d.classes {
		if applied[ci] {
			continue
		}
		if subset(d.classes[ci].Dets, residual) {
			w := weight[ci]
			if em[ci] > 0 {
				w /= 4 // the matchings voted for this class once
			}
			cands = append(cands, cand{ci, w})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].w < cands[j].w })
	if len(cands) > 40 {
		cands = cands[:40]
	}
	target := map[int]bool{}
	//fpnvet:orderless set copy; no order-dependent state
	for det := range residual {
		target[det] = true
	}
	var best []int
	bestW := math.Inf(1)
	var cur []int
	var dfs func(idx int, rem map[int]bool, w float64)
	dfs = func(idx int, rem map[int]bool, w float64) {
		if w >= bestW {
			return
		}
		if len(rem) == 0 {
			best = append([]int(nil), cur...)
			bestW = w
			return
		}
		if idx >= len(cands) || len(cur) >= 6 {
			return
		}
		for i := idx; i < len(cands); i++ {
			c := cands[i]
			if !subset(d.classes[c.ci].Dets, rem) {
				continue
			}
			for _, det := range d.classes[c.ci].Dets {
				toggle(rem, det)
			}
			cur = append(cur, c.ci)
			dfs(i+1, rem, w+c.w)
			cur = cur[:len(cur)-1]
			for _, det := range d.classes[c.ci].Dets {
				toggle(rem, det)
			}
		}
	}
	dfs(0, target, 0)
	return best
}

func subset(dets []int, set map[int]bool) bool {
	if len(dets) == 0 {
		return false
	}
	for _, det := range dets {
		if !set[det] {
			return false
		}
	}
	return true
}
