// Decode scratch arenas. A DecodeScratch owns every per-shot buffer a
// decoder needs — flag sets, representative/weight overlays, Dijkstra
// storage, matching edge lists and the blossom workspace — so that the
// steady-state decode loop performs no heap allocation. Scratches are
// cheap to create, grow lazily to the largest decoder shape they have
// served, and may be moved freely between decoders; they must not be
// shared between goroutines. The decoders themselves stay immutable
// after construction (their shortest-path-tree caches are built lazily
// under per-source sync.Once), so one decoder may be shared by any
// number of workers each holding its own scratch.
package decoder

import (
	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/matching"
)

// ScratchDecoder is implemented by decoders whose hot path can run
// allocation-free against a caller-owned DecodeScratch.
//
// Every decoder reads one shot as its defect list: the ids of the
// detectors that fired, syndrome detectors and flags together, sorted
// ascending and without duplicates (Defects.Lane and EventDefects build
// such lists). Ids outside the decoder's graph are ignored. A decoder
// neither modifies the list nor retains it past the call.
type ScratchDecoder interface {
	// DecodeWith behaves exactly like Decode but draws every per-shot
	// buffer from sc. The returned slice aliases sc and is valid only
	// until the next DecodeWith call on the same scratch.
	DecodeWith(sc *DecodeScratch, defects []int32) ([]bool, error)
}

// DecodeScratch is a per-worker reusable arena for decoder hot paths.
// The zero value is not ready; use NewScratch.
type DecodeScratch struct {
	correction []bool
	src        []int
	flags      dem.FlagSet // observed flags, in ascending detector order
	adjusted   markSet     // classes whose representative needs re-selection
	rep        []dem.ProjEvent
	weight     []float64

	// Dijkstra-from-source storage for flag-adjusted shots (the cached
	// trees cover the flagless steady state).
	dij dijkstraScratch

	// Per-source tree pointer tables (either into the cache or into dij
	// rows).
	dist [][]float64
	prev [][]int

	path   []int // classes along one matched tree path
	medges []matchEdge
	qedges []matching.Edge
	match  matching.Workspace

	uf   ufScratch
	rest restScratch
	bp   bpScratch

	// Batch-decode state (defect extraction buffers and the syndrome
	// memo); untouched by reset, revalidated against its owning Batch on
	// every DecodeBatch call. See batch.go.
	batch batchScratch
}

// NewScratch returns an empty scratch arena ready for DecodeWith.
func NewScratch() *DecodeScratch {
	return &DecodeScratch{}
}

// reset prepares the shared buffers for a new shot with numObs
// observables.
func (sc *DecodeScratch) reset(numObs int) {
	sc.correction = growBools(sc.correction, numObs)
	for i := range sc.correction {
		sc.correction[i] = false
	}
	sc.src = sc.src[:0]
	sc.medges = sc.medges[:0]
	sc.flags.Reset()
	sc.adjusted.reset()
}

// markSet is an ordered set over small dense int keys (class indices):
// a membership array plus an insertion-order list, so iterating the
// marked classes is deterministic — unlike the map[int]bool it replaced,
// whose range order varied run to run.
type markSet struct {
	marked []bool
	list   []int
}

// add marks key k, growing the membership array as needed.
func (s *markSet) add(k int) {
	if k >= len(s.marked) {
		if k < cap(s.marked) {
			s.marked = s.marked[:k+1]
		} else {
			grown := make([]bool, k+1)
			copy(grown, s.marked)
			s.marked = grown
		}
	}
	if s.marked[k] {
		return
	}
	s.marked[k] = true
	s.list = append(s.list, k)
}

// keys returns the marked keys in insertion order; the slice aliases the
// set and is valid until the next add or reset.
func (s *markSet) keys() []int { return s.list }

// reset unmarks everything, keeping storage for reuse.
func (s *markSet) reset() {
	for _, k := range s.list {
		s.marked[k] = false
	}
	s.list = s.list[:0]
}

// ensureClassOverlay sizes the per-shot representative/weight overlays.
func (sc *DecodeScratch) ensureClassOverlay(n int) ([]dem.ProjEvent, []float64) {
	if cap(sc.rep) < n {
		sc.rep = make([]dem.ProjEvent, n)
	}
	if cap(sc.weight) < n {
		sc.weight = make([]float64, n)
	}
	sc.rep = sc.rep[:n]
	sc.weight = sc.weight[:n]
	return sc.rep, sc.weight
}

// dijkstraScratch holds the per-source rows used when per-shot weights
// differ from the cached base weights.
type dijkstraScratch struct {
	dist []float64 // k rows × nv, flattened
	prev []int
	heap floatHeap
	rows int
	nv   int
}

// ensure sizes the arena for k sources over nv vertices and returns the
// row accessors.
func (d *dijkstraScratch) ensure(k, nv int) {
	if need := k * nv; cap(d.dist) < need {
		d.dist = make([]float64, need)
		d.prev = make([]int, need)
	}
	d.dist = d.dist[:k*nv]
	d.prev = d.prev[:k*nv]
	d.rows, d.nv = k, nv
}

func (d *dijkstraScratch) row(i int) ([]float64, []int) {
	lo, hi := i*d.nv, (i+1)*d.nv
	return d.dist[lo:hi:hi], d.prev[lo:hi:hi]
}

// ensureTreeTables sizes the per-source tree pointer tables.
func (sc *DecodeScratch) ensureTreeTables(k int) ([][]float64, [][]int) {
	if cap(sc.dist) < k {
		sc.dist = make([][]float64, k)
		sc.prev = make([][]int, k)
	}
	sc.dist = sc.dist[:k]
	sc.prev = sc.prev[:k]
	return sc.dist, sc.prev
}

// ufScratch is the union-find decoder's arena.
type ufScratch struct {
	defect     []bool
	defects    []int
	parent     []int
	rank       []int
	parity     []int
	bound      []bool
	growth     []int
	inCluster  []bool
	grownEdges []int
	toGrow     []int
	treeAdj    [][]int
	visited    []bool
	order      []int
	parentEdge []int
	queue      []int
}

// restScratch is the Restriction decoder's arena. Its class- and
// detector-indexed tables are all zero between shots: ensure clears the
// entries the last shot touched, listed in picked and resDets.
type restScratch struct {
	flipped, latSrc []int

	em       []int  // class -> lattice paths through it (EM)
	applied  []bool // class -> applied by the lifting rule
	picked   []int  // classes with a lattice path this shot
	residual []bool // detector -> in the residual syndrome
	nres     int    // detectors in the residual
	resDets  []int  // detectors the residual held this shot

	cands     []repairCand // the repair search's candidates,
	cur, best []int        // partial and lightest covers,
	bestW     float64      // and the lightest cover's weight
}

// bpScratch is the BP+OSD decoder's arena, shaped by the decoder's
// Tanner graph (slot-indexed message storage).
type bpScratch struct {
	syndrome  []bool
	priorLLR  []float64
	v2c       []float64 // flattened by variable slot offsets
	c2v       []float64
	posterior []float64
	hard      []bool
	nv        int
	slots     int
}

func (b *bpScratch) ensure(rows, nv, slots int) {
	if cap(b.syndrome) < rows {
		b.syndrome = make([]bool, rows)
	}
	b.syndrome = b.syndrome[:rows]
	if cap(b.priorLLR) < nv {
		b.priorLLR = make([]float64, nv)
		b.posterior = make([]float64, nv)
		b.hard = make([]bool, nv)
	}
	b.priorLLR = b.priorLLR[:nv]
	b.posterior = b.posterior[:nv]
	b.hard = b.hard[:nv]
	if cap(b.v2c) < slots {
		b.v2c = make([]float64, slots)
		b.c2v = make([]float64, slots)
	}
	b.v2c = b.v2c[:slots]
	b.c2v = b.c2v[:slots]
	b.nv, b.slots = nv, slots
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
