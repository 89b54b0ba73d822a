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

	classTable
	id string // kind+config tag attached to decode errors

	detColor map[int]int // syndrome detector of this basis -> color

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
		detColor:    map[int]int{},
	}
	for di, det := range model.Circuit.Detectors {
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
	rs.ensure()
	correction := sc.correction
	rs.flipped = rs.flipped[:0]
	for _, id := range defects {
		if _, ok := d.detColor[int(id)]; ok {
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
	em := rs.em
	for li, pair := range latticePairs {
		g := &d.lat[li]
		rs.latSrc = rs.latSrc[:0]
		for _, det := range flipped {
			c := d.detColor[det]
			if c != pair[0] && c != pair[1] {
				continue
			}
			vi, ok := g.vertOf[det]
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
				em[ci]++
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
