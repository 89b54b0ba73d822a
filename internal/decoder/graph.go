// The decoding-graph layer shared by the matching decoders (MWPM,
// Union-Find and Restriction): one table of error equivalence classes
// with their flagless representatives, and one weighted graph type whose
// edges are classes. Each decoder keeps its own flag-conditioned
// reweighting rule; the graph owns the rest of the matching machinery —
// the per-source shortest-path tree (cached or per shot), the pairwise
// matching instance and the walk back along a matched tree path.
package decoder

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/fpn/flagproxy/internal/dem"
)

// classTable holds the error equivalence classes of one basis, their
// flagless representatives and weights, and which classes each flag
// detector can re-select.
type classTable struct {
	classes []dem.Class
	pM      float64
	numObs  int

	baseRep    []dem.ProjEvent // flagless representative per class
	baseWeight []float64       // −log π of each flagless representative
	flagIndex  [][]int         // flag detector -> class ids with members on it
	empty      *dem.Class      // empty-syndrome equivalence class, if any
}

func newClassTable(classes []dem.Class, pM float64, numObs int) classTable {
	t := classTable{
		classes:    classes,
		pM:         pM,
		numObs:     numObs,
		baseRep:    make([]dem.ProjEvent, len(classes)),
		baseWeight: make([]float64, len(classes)),
	}
	for ci := range classes {
		if len(classes[ci].Dets) == 0 {
			t.empty = &classes[ci]
		}
		rep, p := classes[ci].Representative(nil, pM)
		t.baseRep[ci] = rep
		t.baseWeight[ci] = weightOf(p)
		for _, m := range classes[ci].Members {
			for _, f := range m.Flags {
				for len(t.flagIndex) <= f {
					t.flagIndex = append(t.flagIndex, nil)
				}
				// Classes are visited in order, so a flag already listing
				// ci lists it last.
				if l := t.flagIndex[f]; len(l) == 0 || l[len(l)-1] != ci {
					t.flagIndex[f] = append(l, ci)
				}
			}
		}
	}
	return t
}

func weightOf(p float64) float64 {
	if p < 1e-15 {
		p = 1e-15
	}
	if p > 0.5 {
		p = 0.5
	}
	return -math.Log(p)
}

// readFlags adds the shot's observed flags — the defects that some
// class member mentions — to sc.flags, in list order, so the set stays
// ascending.
func (t *classTable) readFlags(sc *DecodeScratch, defects []int32) {
	for _, id := range defects {
		if uint(id) < uint(len(t.flagIndex)) && len(t.flagIndex[id]) > 0 {
			sc.flags.Add(int(id))
		}
	}
}

// flagOverlay starts a flagged shot's per-class overlay: it sizes sc's
// representative and weight overlays, seeds the representatives with
// the flagless ones, and marks in sc.adjusted every class with a member
// on an observed flag — the classes whose representative is re-selected
// against the actual flag set. The weights are the caller's to fill.
func (t *classTable) flagOverlay(sc *DecodeScratch) ([]dem.ProjEvent, []float64) {
	rep, weight := sc.ensureClassOverlay(len(t.classes))
	copy(rep, t.baseRep)
	for _, f := range sc.flags.Flags() {
		for _, ci := range t.flagIndex[f] {
			sc.adjusted.add(ci)
		}
	}
	return rep, weight
}

// matchGraph is a decoding graph whose edges are equivalence classes:
// the whole projected graph for MWPM and Union-Find, or one restricted
// lattice for Restriction.
type matchGraph struct {
	vertOf   []int // detector -> vertex, or -1
	boundary int   // boundary vertex index, or -1
	edges    []graphEdge
	adj      [][]int   // vertex -> edge ids
	spt      *sptCache // base-weight shortest-path trees, one per source
}

type graphEdge struct {
	u, v  int // vertices (v may be the boundary vertex)
	class int
}

func newMatchGraph() matchGraph {
	return matchGraph{boundary: -1}
}

// newPairGraph builds the decoding graph of classes flipping at most two
// detectors: a vertex per detector, a boundary vertex when some class
// flips a single detector, and an edge per non-empty class.
func newPairGraph(classes []dem.Class) (matchGraph, error) {
	g := newMatchGraph()
	needBoundary := false
	for _, cl := range classes {
		for _, det := range cl.Dets {
			g.vertex(det)
		}
		if len(cl.Dets) == 1 {
			needBoundary = true
		}
	}
	if needBoundary {
		g.boundary = len(g.adj)
		g.adj = append(g.adj, nil)
	}
	for ci, cl := range classes {
		switch len(cl.Dets) {
		case 0:
		case 1:
			g.addEdge(g.vertOf[cl.Dets[0]], g.boundary, ci)
		case 2:
			g.addEdge(g.vertOf[cl.Dets[0]], g.vertOf[cl.Dets[1]], ci)
		default:
			return g, fmt.Errorf("decoder: class with %d dets survived decomposition", len(cl.Dets))
		}
	}
	return g, nil
}

// vertex returns det's vertex, adding it on first sight as vertex
// len(g.adj): detector vertices come before the boundary vertex.
func (g *matchGraph) vertex(det int) int {
	for len(g.vertOf) <= det {
		g.vertOf = append(g.vertOf, -1)
	}
	if g.vertOf[det] < 0 {
		g.vertOf[det] = len(g.adj)
		g.adj = append(g.adj, nil)
	}
	return g.vertOf[det]
}

// vert returns det's vertex, or -1 when the graph has none.
func (g *matchGraph) vert(det int) int {
	if uint(det) < uint(len(g.vertOf)) {
		return g.vertOf[det]
	}
	return -1
}

// addEdge joins vertices u and v by an edge of class ci.
func (g *matchGraph) addEdge(u, v, ci int) {
	ei := len(g.edges)
	g.edges = append(g.edges, graphEdge{u: u, v: v, class: ci})
	g.adj[u] = append(g.adj[u], ei)
	g.adj[v] = append(g.adj[v], ei)
}

// sources appends to buf the vertices of the defects this graph holds,
// in ascending vertex order, and returns it. Vertices are numbered in
// the order classes first mention them, not in detector order, and the
// matching's tie-breaks depend on the source order.
func (g *matchGraph) sources(buf []int, defects []int32) []int {
	buf = buf[:0]
	for _, id := range defects {
		if vi := g.vert(int(id)); vi >= 0 {
			buf = append(buf, vi)
		}
	}
	sort.Ints(buf)
	return buf
}

// cacheTrees enables the shared shortest-path-tree cache under the
// base weights, which hold for every flagless shot of a run.
func (g *matchGraph) cacheTrees(base []float64) {
	g.spt = newSPTCache(len(g.adj), base)
}

// sourceTrees points sc's per-source tree tables at the shortest-path
// tree rooted at each vertex of src, and returns them. A flagged shot's
// weights differ from the base weights, so its trees are computed fresh.
func (g *matchGraph) sourceTrees(sc *DecodeScratch, src []int, weight []float64, flagged bool) ([][]float64, [][]int) {
	dist, prev := sc.ensureTreeTables(len(src))
	if flagged {
		sc.dij.ensure(len(src), len(g.adj))
	}
	for i, s := range src {
		dist[i], prev[i] = g.tree(&sc.dij, i, s, weight, flagged)
	}
	return dist, prev
}

// tree returns the shortest-path tree rooted at s. Unless fresh, that is
// the cached base-weight tree, built on first use and then shared
// read-only by every worker; a fresh tree (a flagged shot's, or the
// cache's own build) comes from Dijkstra under weight into row i of dij.
func (g *matchGraph) tree(dij *dijkstraScratch, i, s int, weight []float64, fresh bool) ([]float64, []int) {
	if !fresh {
		c := g.spt
		c.once[s].Do(func() { c.build(g, s) })
		return c.dist[s], c.prev[s]
	}
	dist, prev := dij.row(i)
	dijkstraInto(s, weight, g.edges, g.adj, dist, prev, &dij.heap)
	return dist, prev
}

// matchingInstance fills sc.medges with the matching instance over the
// sources src, given the distance rows of their trees: real nodes
// 0..k-1 joined along every finite shortest path and, when the graph has
// a boundary, virtual boundary nodes k..2k-1 — each joined to its own
// source at boundary distance and to the other virtual nodes at zero
// cost. It returns the instance's node count.
func (g *matchGraph) matchingInstance(sc *DecodeScratch, src []int, dist [][]float64) int {
	k := len(src)
	sc.medges = sc.medges[:0]
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if w := dist[i][src[j]]; !math.IsInf(w, 1) {
				sc.medges = append(sc.medges, matchEdge{i, j, w})
			}
		}
	}
	if g.boundary < 0 {
		return k
	}
	for i := 0; i < k; i++ {
		if w := dist[i][g.boundary]; !math.IsInf(w, 1) {
			sc.medges = append(sc.medges, matchEdge{i, k + i, w})
		}
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			sc.medges = append(sc.medges, matchEdge{k + i, k + j, 0})
		}
	}
	return 2 * k
}

// pathClasses walks a shortest-path tree (its prev row) from target back
// to root and returns the classes of the edges on the way, reusing buf.
// ok is false when the tree is broken.
func (g *matchGraph) pathClasses(buf []int, prev []int, root, target int) (path []int, ok bool) {
	buf = buf[:0]
	for cur := target; cur != root; {
		ei := prev[cur]
		if ei < 0 {
			return buf, false
		}
		e := g.edges[ei]
		buf = append(buf, e.class)
		if e.u == cur {
			cur = e.v
		} else {
			cur = e.u
		}
	}
	return buf, true
}

// sptCache is a lazily built, read-only-after-build cache of shortest-
// path trees over a decoding graph under its base weights. Those are
// fixed for an entire run, so the tree from each source is computed at
// most once (under a per-source sync.Once) and then shared by every
// worker without further synchronization.
type sptCache struct {
	base []float64
	once []sync.Once
	dist [][]float64
	prev [][]int
}

func newSPTCache(nv int, base []float64) *sptCache {
	return &sptCache{
		base: base,
		once: make([]sync.Once, nv),
		dist: make([][]float64, nv),
		prev: make([][]int, nv),
	}
}

// build computes the base-weight tree rooted at s into the cache.
//
//fpnvet:coldpath runs once per source per run; later flagless shots read the cached tree
func (c *sptCache) build(g *matchGraph, s int) {
	var dij dijkstraScratch
	dij.ensure(1, len(g.adj))
	c.dist[s], c.prev[s] = g.tree(&dij, 0, s, c.base, true)
}

// dijkstraInto computes shortest paths from s over a decoding graph
// with per-class weights, writing into caller-provided rows (resized by
// the caller to the vertex count). pq is reset and reused.
func dijkstraInto(s int, weight []float64, edges []graphEdge, adj [][]int, dist []float64, prev []int, pq *floatHeap) {
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[s] = 0
	*pq = (*pq)[:0]
	pq.push(heapItem{0, s})
	for len(*pq) > 0 {
		it := pq.pop()
		if it.d > dist[it.v] {
			continue
		}
		for _, ei := range adj[it.v] {
			e := edges[ei]
			to := e.u
			if to == it.v {
				to = e.v
			}
			nd := it.d + weight[e.class]
			if nd < dist[to] {
				dist[to] = nd
				prev[to] = ei
				pq.push(heapItem{nd, to})
			}
		}
	}
}

type heapItem struct {
	d float64
	v int
}

// floatHeap is a hand-rolled binary min-heap on (d, v) items. It mirrors
// container/heap's sift-up/sift-down exactly (same comparisons, same
// swap order) so pop order — and therefore every tie-broken shortest
// path — is identical to the former heap.Push/heap.Pop code, without
// the per-push interface boxing allocation.
type floatHeap []heapItem

func (h *floatHeap) push(it heapItem) {
	*h = append(*h, it)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(s[j].d < s[i].d) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *floatHeap) pop() heapItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].d < s[j].d {
			j = j2
		}
		if !(s[j].d < s[i].d) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*h = s[:n]
	return it
}
