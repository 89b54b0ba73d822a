package decoder

import (
	"fmt"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/dem"
)

// weightScale quantizes -log-probability weights into the integer domain
// of the blossom matcher.
const weightScale = 1000.0

// MWPM is the flagged minimum-weight perfect-matching decoder for
// surface codes: per shot it selects a flag-conditioned representative
// from every error equivalence class, builds the weighted decoding
// graph, matches the flipped syndrome bits along shortest paths, and
// lifts the matched paths back to Pauli-frame corrections.
//
// Edge weights are fixed for an entire run except under observed flags,
// so the shortest-path trees of the flagless steady state are computed
// once per source (lazily, under a per-source sync.Once) and shared
// read-only by all workers; only flagged shots re-run Dijkstra, into
// per-worker scratch.
type MWPM struct {
	Basis css.Basis
	// UseFlags selects the flag protocol; when false the decoder is the
	// plain-MWPM baseline (PyMatching stand-in) that ignores flag bits.
	UseFlags bool
	// DisableRenorm switches off the Equation 9 probability
	// renormalization while keeping flag-conditioned representative
	// selection (an ablation knob; the paper always renormalizes).
	DisableRenorm bool

	classTable
	matchGraph
	id string // kind+config tag attached to decode errors
}

// NewMWPM builds the decoder for one syndrome basis of a model. pM is
// the measurement misread probability used in Equation 9.
func NewMWPM(model *dem.Model, basis css.Basis, pM float64, useFlags bool) (*MWPM, error) {
	classes := dem.BuildClasses(decompose(model.Project(basis), 8))
	g, err := newPairGraph(classes)
	if err != nil {
		return nil, err
	}
	d := &MWPM{
		Basis:      basis,
		UseFlags:   useFlags,
		classTable: newClassTable(classes, pM, len(model.Circuit.Observables)),
		matchGraph: g,
		id:         fmt.Sprintf("mwpm(basis=%c flags=%v pM=%g)", basis, useFlags, pM),
	}
	d.cacheTrees(d.baseWeight)
	return d, nil
}

// NumClasses reports the equivalence-class count (for diagnostics).
func (d *MWPM) NumClasses() int { return len(d.classes) }

// Decode maps a shot's defect list (see ScratchDecoder) to predicted
// observable flips. It allocates a private scratch per call; hot loops
// should hold a DecodeScratch and call DecodeWith.
func (d *MWPM) Decode(defects []int32) ([]bool, error) {
	return d.DecodeWith(NewScratch(), defects)
}

// DecodeWith is Decode drawing every per-shot buffer from sc. The
// returned slice aliases sc and is valid until sc's next use. Panics
// from the matching layer are recovered into returned errors.
//
//fpn:hotpath
func (d *MWPM) DecodeWith(sc *DecodeScratch, defects []int32) (corr []bool, err error) {
	defer annotateErr(d.id, &err)
	defer Recover(&err)
	sc.reset(d.numObs)
	correction := sc.correction
	// Flipped syndrome vertices and observed flags.
	sc.src = d.sources(sc.src, defects)
	src := sc.src
	if d.UseFlags {
		// The unflagged baseline skips flag bookkeeping entirely: no flag
		// reads, no flag-set bookkeeping, no per-class reweighting.
		d.readFlags(sc, defects)
	}
	nFlags := sc.flags.Len()
	if len(src) == 0 {
		// No parity check fired: the only possible explanations live in
		// the empty-syndrome equivalence class (flag-only propagation
		// errors) or are "no error".
		if d.UseFlags {
			applyEmptyClass(d.empty, &sc.flags, correction)
		}
		return correction, nil
	}
	// Per-shot class representatives and weights.
	rep := d.baseRep
	weight := d.baseWeight
	if nFlags > 0 {
		rep, weight = d.flagOverlay(sc)
		wM := weightOf(d.pM)
		for ci := range d.classes {
			// Default: flagless representative at diff |F|; Equation 9
			// gives weight |F|·wM + (|σ|−1)·(−log π).
			exp := float64(len(d.classes[ci].Dets) - 1)
			if exp < 1 {
				exp = 1
			}
			weight[ci] = d.baseWeight[ci]*exp + float64(nFlags)*wM
		}
		// Classes with members touching an observed flag re-select their
		// representative against the actual flag set.
		for _, ci := range sc.adjusted.keys() {
			r, p := d.classes[ci].Representative(&sc.flags, d.pM)
			rep[ci] = r
			weight[ci] = weightOf(p)
		}
		if d.DisableRenorm {
			for ci := range d.classes {
				weight[ci] = weightOf(rep[ci].P)
			}
		}
	}
	if d.boundary < 0 && len(src)%2 != 0 {
		return nil, fmt.Errorf("decoder: odd syndrome weight %d on a closed code", len(src))
	}
	// Match the sources along their shortest-path trees; real node i
	// matched to virtual node k+i is matched to the boundary.
	dist, prev := d.sourceTrees(sc, src, weight, nFlags > 0)
	mate, err := minWeightPerfectWS(sc, d.matchingInstance(sc, src, dist), sc.medges)
	if err != nil {
		return nil, err
	}
	k := len(src)
	for i := 0; i < k; i++ {
		j := mate[i]
		if j < i && j < k {
			continue // handled from the other side
		}
		var target int
		if j < k {
			target = src[j]
		} else if j == k+i {
			target = d.boundary
		} else {
			return nil, fmt.Errorf("decoder: real node matched to foreign virtual node")
		}
		var ok bool
		if sc.path, ok = d.pathClasses(sc.path, prev[i], src[i], target); !ok {
			return nil, fmt.Errorf("decoder: broken shortest-path tree")
		}
		for _, ci := range sc.path {
			for _, o := range rep[ci].Obs {
				correction[o] = !correction[o]
			}
		}
	}
	return correction, nil
}
