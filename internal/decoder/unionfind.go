package decoder

import (
	"fmt"
	"sort"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/dem"
)

// UnionFind is a Delfosse–Nickerson style union-find decoder operating
// on the same projected decoding graph as the flagged MWPM decoder. It
// trades accuracy for near-linear decoding time, and — as an extension
// of the paper's flag protocol — it still selects flag-conditioned Pauli
// frames during peeling, so it benefits from flag measurements without
// paying the matching cost.
type UnionFind struct {
	Basis    css.Basis
	UseFlags bool

	classTable
	matchGraph
	id string // kind+config tag attached to decode errors
}

// NewUnionFind builds the decoder for one syndrome basis.
func NewUnionFind(model *dem.Model, basis css.Basis, pM float64, useFlags bool) (*UnionFind, error) {
	classes := dem.BuildClasses(decompose(model.Project(basis), 8))
	g, err := newPairGraph(classes)
	if err != nil {
		return nil, err
	}
	return &UnionFind{
		Basis:      basis,
		UseFlags:   useFlags,
		classTable: newClassTable(classes, pM, len(model.Circuit.Observables)),
		matchGraph: g,
		id:         fmt.Sprintf("unionfind(basis=%c flags=%v pM=%g)", basis, useFlags, pM),
	}, nil
}

// uf is a union-find forest over graph vertices with cluster metadata.
// Its slices are borrowed from a ufScratch, so the forest itself carries
// no allocation.
type uf struct {
	parent []int
	rank   []int
	parity []int  // number of unmatched defects in the cluster, mod 2
	bound  []bool // cluster touches the boundary
}

func (u *uf) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *uf) union(a, b int) int {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return ra
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.parity[ra] ^= u.parity[rb]
	u.bound[ra] = u.bound[ra] || u.bound[rb]
	return ra
}

// neutral reports whether the cluster of x needs no further growth.
func (u *uf) neutral(x int) bool {
	r := u.find(x)
	return u.parity[r] == 0 || u.bound[r]
}

// Decode maps a shot's defect list (see ScratchDecoder) to predicted
// observable flips. It allocates a private scratch per call; hot loops
// should hold a DecodeScratch and call DecodeWith.
func (d *UnionFind) Decode(defects []int32) ([]bool, error) {
	return d.DecodeWith(NewScratch(), defects)
}

// DecodeWith is Decode drawing every per-shot buffer from sc. The
// returned slice aliases sc and is valid until sc's next use. Internal
// panics are recovered into returned errors.
//
//fpn:hotpath
func (d *UnionFind) DecodeWith(sc *DecodeScratch, defects []int32) (corr []bool, err error) {
	defer annotateErr(d.id, &err)
	defer Recover(&err)
	sc.reset(d.numObs)
	us := &sc.uf
	correction := sc.correction
	nv := len(d.adj)
	us.defect = growBools(us.defect, nv)
	clear(us.defect)
	defect := us.defect
	us.defects = d.sources(us.defects, defects)
	src := us.defects
	for _, vi := range src {
		defect[vi] = true
	}
	if d.UseFlags {
		d.readFlags(sc, defects)
	}
	if len(src) == 0 {
		// Flag-only shots decode through the empty-syndrome class.
		if d.UseFlags {
			applyEmptyClass(d.empty, &sc.flags, correction)
		}
		return correction, nil
	}
	rep := d.baseRep
	if sc.flags.Len() > 0 {
		rep, _ = d.flagOverlay(sc)
		for _, ci := range sc.adjusted.keys() {
			r, _ := d.classes[ci].Representative(&sc.flags, d.pM)
			rep[ci] = r
		}
	}

	us.parent = growInts(us.parent, nv)
	us.rank = growInts(us.rank, nv)
	us.parity = growInts(us.parity, nv)
	us.bound = growBools(us.bound, nv)
	for i := 0; i < nv; i++ {
		us.parent[i] = i
		us.rank[i] = 0
		us.parity[i] = 0
		us.bound[i] = false
	}
	u := uf{parent: us.parent, rank: us.rank, parity: us.parity, bound: us.bound}
	for _, v := range src {
		u.parity[v] = 1
	}
	if d.boundary >= 0 {
		u.bound[d.boundary] = true
	}
	// Edge growth: 0 (untouched), 1 (half), 2 (grown). Grow all edges on
	// the frontier of non-neutral clusters by one half-step per stage.
	us.growth = growInts(us.growth, len(d.edges))
	clear(us.growth)
	growth := us.growth
	us.inCluster = growBools(us.inCluster, nv)
	clear(us.inCluster)
	inCluster := us.inCluster
	for _, v := range src {
		inCluster[v] = true
	}
	us.grownEdges = us.grownEdges[:0]
	for stage := 0; stage < 2*len(d.edges)+2; stage++ {
		active := false
		us.toGrow = us.toGrow[:0]
		for ei, e := range d.edges {
			if growth[ei] >= 2 {
				continue
			}
			uIn := inCluster[e.u] && !u.neutral(e.u)
			vIn := inCluster[e.v] && !u.neutral(e.v)
			if uIn || vIn {
				us.toGrow = append(us.toGrow, ei)
			}
		}
		for _, ei := range us.toGrow {
			e := d.edges[ei]
			growth[ei]++
			if growth[ei] == 2 {
				inCluster[e.u] = true
				inCluster[e.v] = true
				u.union(e.u, e.v)
				us.grownEdges = append(us.grownEdges, ei)
			}
			active = true
		}
		if !active {
			break
		}
		allNeutral := true
		for _, v := range src {
			if !u.neutral(v) {
				allNeutral = false
				break
			}
		}
		if allNeutral {
			break
		}
	}
	for _, v := range src {
		if !u.neutral(v) {
			return nil, fmt.Errorf("decoder: union-find failed to neutralize all clusters")
		}
	}
	// Peeling: build a spanning forest of the grown subgraph, rooted at
	// the boundary where available, and peel leaves inward.
	grownEdges := us.grownEdges
	sort.Ints(grownEdges)
	if len(us.treeAdj) < nv {
		us.treeAdj = append(us.treeAdj, make([][]int, nv-len(us.treeAdj))...)
	}
	treeAdj := us.treeAdj
	for _, ei := range grownEdges {
		e := d.edges[ei]
		treeAdj[e.u] = treeAdj[e.u][:0]
		treeAdj[e.v] = treeAdj[e.v][:0]
	}
	for _, ei := range grownEdges {
		e := d.edges[ei]
		treeAdj[e.u] = append(treeAdj[e.u], ei)
		treeAdj[e.v] = append(treeAdj[e.v], ei)
	}
	us.visited = growBools(us.visited, nv)
	clear(us.visited)
	visited := us.visited
	us.order = us.order[:0]
	us.parentEdge = growInts(us.parentEdge, nv)
	for i := range us.parentEdge {
		us.parentEdge[i] = -1
	}
	parentEdge := us.parentEdge
	bfs := func(root int) {
		if visited[root] {
			return
		}
		visited[root] = true
		us.queue = us.queue[:0]
		us.queue = append(us.queue, root)
		for head := 0; head < len(us.queue); head++ {
			v := us.queue[head]
			us.order = append(us.order, v)
			for _, ei := range treeAdj[v] {
				e := d.edges[ei]
				to := e.u
				if to == v {
					to = e.v
				}
				if !visited[to] {
					visited[to] = true
					parentEdge[to] = ei
					us.queue = append(us.queue, to)
				}
			}
		}
	}
	if d.boundary >= 0 {
		bfs(d.boundary)
	}
	for _, v := range src {
		bfs(v)
	}
	// Peel from the leaves (reverse BFS order): a defective vertex sends
	// its defect up its parent edge, applying that edge's Pauli frames.
	order := us.order
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if !defect[v] || parentEdge[v] < 0 {
			continue
		}
		ei := parentEdge[v]
		e := d.edges[ei]
		to := e.u
		if to == v {
			to = e.v
		}
		for _, o := range rep[e.class].Obs {
			correction[o] = !correction[o]
		}
		defect[v] = false
		if to != d.boundary {
			defect[to] = !defect[to]
		}
	}
	for _, v := range src {
		if defect[v] {
			return nil, fmt.Errorf("decoder: peeling left an unmatched defect")
		}
	}
	return correction, nil
}
