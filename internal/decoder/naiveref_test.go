package decoder

// Naive reference decoders: byte-for-byte copies of the pre-optimization
// Decode bodies (container/heap Dijkstra per shot, fresh allocations
// everywhere, package-level blossom matching). The differential harness
// asserts the cached/scratch hot paths are bit-identical to these. The
// map-based hyperedge decomposition at the end is the reference for
// decompose.go's interned atom index.

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/gf2"
	"github.com/fpn/flagproxy/internal/matching"
)

// refHeap is the old container/heap priority queue.
type refHeap []heapItem

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refDijkstra is the old MWPM.dijkstra: fresh slices, container/heap.
func refDijkstra(edges []graphEdge, adj [][]int, s int, weight []float64, nv int) ([]float64, []int) {
	dist := make([]float64, nv)
	prev := make([]int, nv)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[s] = 0
	pq := &refHeap{{0, s}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(heapItem)
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
				heap.Push(pq, heapItem{nd, to})
			}
		}
	}
	return dist, prev
}

// naiveMWPMDecode is the pre-optimization MWPM.Decode. flagAll is the
// decoder's collectFlagList, the flags the naive references probe.
func naiveMWPMDecode(d *MWPM, flagAll []int, detBit func(int) bool) ([]bool, error) {
	var src []int
	for vi, det := range vertDets(d.vertOf) {
		if detBit(det) {
			src = append(src, vi)
		}
	}
	correction := make([]bool, d.numObs)
	flags := &dem.FlagSet{}
	if d.UseFlags {
		for _, f := range flagAll {
			if detBit(f) {
				flags.Add(f)
			}
		}
	}
	nFlags := flags.Len()
	if len(src) == 0 {
		if d.UseFlags {
			applyEmptyClass(d.empty, flags, correction)
		}
		return correction, nil
	}
	rep := d.baseRep
	weight := d.baseWeight
	if nFlags > 0 {
		rep = make([]dem.ProjEvent, len(d.classes))
		weight = make([]float64, len(d.classes))
		copy(rep, d.baseRep)
		wM := weightOf(d.pM)
		for ci := range d.classes {
			exp := float64(len(d.classes[ci].Dets) - 1)
			if exp < 1 {
				exp = 1
			}
			weight[ci] = d.baseWeight[ci]*exp + float64(nFlags)*wM
		}
		adjusted := map[int]bool{}
		for _, f := range flags.Flags() {
			for _, ci := range d.flagIndex[f] {
				adjusted[ci] = true
			}
		}
		for ci := range adjusted {
			r, p := d.classes[ci].Representative(flags, d.pM)
			rep[ci] = r
			weight[ci] = weightOf(p)
		}
		if d.DisableRenorm {
			for ci := range d.classes {
				weight[ci] = weightOf(rep[ci].P)
			}
		}
	}
	nv := len(d.adj)
	if d.boundary < 0 && len(src)%2 != 0 {
		return nil, fmt.Errorf("decoder: odd syndrome weight %d on a closed code", len(src))
	}
	dist := make([][]float64, len(src))
	prevEdge := make([][]int, len(src))
	for i, s := range src {
		dist[i], prevEdge[i] = refDijkstra(d.edges, d.adj, s, weight, nv)
	}
	k := len(src)
	var medges []matchEdge
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if w := dist[i][src[j]]; !math.IsInf(w, 1) {
				medges = append(medges, matchEdge{i, j, w})
			}
		}
	}
	if d.boundary >= 0 {
		for i := 0; i < k; i++ {
			if w := dist[i][d.boundary]; !math.IsInf(w, 1) {
				medges = append(medges, matchEdge{i, k + i, w})
			}
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				medges = append(medges, matchEdge{k + i, k + j, 0})
			}
		}
	}
	total := k
	if d.boundary >= 0 {
		total = 2 * k
	}
	mate, err := minWeightPerfect(total, medges)
	if err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		j := mate[i]
		if j < i && j < k {
			continue
		}
		var target int
		if j < k {
			target = src[j]
		} else if j == k+i {
			target = d.boundary
		} else {
			return nil, fmt.Errorf("decoder: real node matched to foreign virtual node")
		}
		cur := target
		for cur != src[i] {
			ei := prevEdge[i][cur]
			if ei < 0 {
				return nil, fmt.Errorf("decoder: broken shortest-path tree")
			}
			e := d.edges[ei]
			for _, o := range rep[e.class].Obs {
				correction[o] = !correction[o]
			}
			if e.u == cur {
				cur = e.v
			} else {
				cur = e.u
			}
		}
	}
	return correction, nil
}

// naiveRestrictionDecode is the pre-optimization Restriction.Decode.
func naiveRestrictionDecode(d *Restriction, flagAll []int, detBit func(int) bool) ([]bool, error) {
	correction := make([]bool, d.numObs)
	var flipped []int
	for det, c := range d.detColor {
		if c >= 0 && detBit(det) {
			flipped = append(flipped, det)
		}
	}
	sort.Ints(flipped)
	flags := &dem.FlagSet{}
	if d.UseFlags {
		for _, f := range flagAll {
			if detBit(f) {
				flags.Add(f)
			}
		}
	}
	nFlags := flags.Len()
	if len(flipped) == 0 {
		if d.UseFlags && d.FlagLifting {
			applyEmptyClass(d.empty, flags, correction)
		}
		return correction, nil
	}
	rep := d.baseRep
	weight := d.baseWeight
	if nFlags > 0 {
		rep = make([]dem.ProjEvent, len(d.classes))
		weight = make([]float64, len(d.classes))
		copy(rep, d.baseRep)
		wM := weightOf(d.pM)
		for ci := range d.classes {
			weight[ci] = d.baseWeight[ci] + float64(nFlags)*wM
		}
		adjusted := map[int]bool{}
		for _, f := range flags.Flags() {
			for _, ci := range d.flagIndex[f] {
				adjusted[ci] = true
			}
		}
		for ci := range adjusted {
			r, diff := d.classes[ci].Select(flags)
			rep[ci] = r
			weight[ci] = weightOf(r.P) + float64(diff)*wM
		}
	}
	em := map[int]int{}
	for li, pair := range latticePairs {
		var src []int
		for _, det := range flipped {
			c := d.detColor[det]
			if c != pair[0] && c != pair[1] {
				continue
			}
			vi := d.lat[li].vert(det)
			if vi < 0 {
				return nil, fmt.Errorf("decoder: flipped detector %d not in lattice %d", det, li)
			}
			src = append(src, vi)
		}
		if len(src) == 0 {
			continue
		}
		if len(src)%2 != 0 {
			return nil, fmt.Errorf("decoder: odd syndrome weight %d in restricted lattice %d", len(src), li)
		}
		dists := make([][]float64, len(src))
		prevs := make([][]int, len(src))
		for i, s := range src {
			dists[i], prevs[i] = refDijkstra(d.lat[li].edges, d.lat[li].adj, s, weight, len(d.lat[li].adj))
		}
		var medges []matchEdge
		for i := 0; i < len(src); i++ {
			for j := i + 1; j < len(src); j++ {
				if w := dists[i][src[j]]; !math.IsInf(w, 1) {
					medges = append(medges, matchEdge{i, j, w})
				}
			}
		}
		mate, err := minWeightPerfect(len(src), medges)
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
				e := d.lat[li].edges[ei]
				em[e.class]++
				if e.u == cur {
					cur = e.v
				} else {
					cur = e.u
				}
			}
		}
	}
	applyClass := func(ci int) {
		r := rep[ci]
		if !d.FlagLifting {
			r = d.baseRep[ci]
		}
		for _, o := range r.Obs {
			correction[o] = !correction[o]
		}
	}
	applied := map[int]bool{}
	if d.FlagLifting {
		for ci, count := range em {
			if count >= 2 && len(rep[ci].Flags) > 0 {
				applyClass(ci)
				applied[ci] = true
				delete(em, ci)
			}
		}
	}
	for ci, count := range em {
		if count >= 2 {
			applyClass(ci)
			applied[ci] = true
			delete(em, ci)
		}
	}
	residual := map[int]bool{}
	for _, det := range flipped {
		residual[det] = true
	}
	for ci := range applied {
		for _, det := range d.classes[ci].Dets {
			toggle(residual, det)
		}
	}
	if len(residual) > 0 {
		cover := naiveCoverResidual(d, residual, em, applied, weight)
		for _, ci := range cover {
			applyClass(ci)
		}
	}
	return correction, nil
}

func refNewUF(n int) *uf {
	u := &uf{parent: make([]int, n), rank: make([]int, n), parity: make([]int, n), bound: make([]bool, n)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

// naiveUnionFindDecode is the pre-optimization UnionFind.Decode.
func naiveUnionFindDecode(d *UnionFind, flagAll []int, detBit func(int) bool) ([]bool, error) {
	correction := make([]bool, d.numObs)
	defect := make([]bool, len(d.adj))
	var defects []int
	for vi, det := range vertDets(d.vertOf) {
		if detBit(det) {
			defect[vi] = true
			defects = append(defects, vi)
		}
	}
	flags := &dem.FlagSet{}
	if d.UseFlags {
		for _, f := range flagAll {
			if detBit(f) {
				flags.Add(f)
			}
		}
	}
	nFlags := flags.Len()
	if len(defects) == 0 {
		if d.UseFlags {
			applyEmptyClass(d.empty, flags, correction)
		}
		return correction, nil
	}
	rep := d.baseRep
	if nFlags > 0 {
		rep = make([]dem.ProjEvent, len(d.classes))
		copy(rep, d.baseRep)
		adjusted := map[int]bool{}
		for _, f := range flags.Flags() {
			for _, ci := range d.flagIndex[f] {
				adjusted[ci] = true
			}
		}
		for ci := range adjusted {
			r, _ := d.classes[ci].Representative(flags, d.pM)
			rep[ci] = r
		}
	}
	u := refNewUF(len(d.adj))
	for _, v := range defects {
		u.parity[v] = 1
	}
	if d.boundary >= 0 {
		u.bound[d.boundary] = true
	}
	growth := make([]int, len(d.edges))
	inCluster := make([]bool, len(d.adj))
	for _, v := range defects {
		inCluster[v] = true
	}
	grownEdges := []int{}
	for stage := 0; stage < 2*len(d.edges)+2; stage++ {
		active := false
		var toGrow []int
		for ei, e := range d.edges {
			if growth[ei] >= 2 {
				continue
			}
			uIn := inCluster[e.u] && !u.neutral(e.u)
			vIn := inCluster[e.v] && !u.neutral(e.v)
			if uIn || vIn {
				toGrow = append(toGrow, ei)
			}
		}
		for _, ei := range toGrow {
			e := d.edges[ei]
			growth[ei]++
			if growth[ei] == 2 {
				inCluster[e.u] = true
				inCluster[e.v] = true
				u.union(e.u, e.v)
				grownEdges = append(grownEdges, ei)
			}
			active = true
		}
		if !active {
			break
		}
		allNeutral := true
		for _, v := range defects {
			if !u.neutral(v) {
				allNeutral = false
				break
			}
		}
		if allNeutral {
			break
		}
	}
	for _, v := range defects {
		if !u.neutral(v) {
			return nil, fmt.Errorf("decoder: union-find failed to neutralize all clusters")
		}
	}
	sort.Ints(grownEdges)
	treeAdj := make([][]int, len(d.adj))
	for _, ei := range grownEdges {
		e := d.edges[ei]
		treeAdj[e.u] = append(treeAdj[e.u], ei)
		treeAdj[e.v] = append(treeAdj[e.v], ei)
	}
	visited := make([]bool, len(d.adj))
	var order []int
	parentEdge := make([]int, len(d.adj))
	for i := range parentEdge {
		parentEdge[i] = -1
	}
	bfs := func(root int) {
		if visited[root] {
			return
		}
		visited[root] = true
		queue := []int{root}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, ei := range treeAdj[v] {
				e := d.edges[ei]
				to := e.u
				if to == v {
					to = e.v
				}
				if !visited[to] {
					visited[to] = true
					parentEdge[to] = ei
					queue = append(queue, to)
				}
			}
		}
	}
	if d.boundary >= 0 {
		bfs(d.boundary)
	}
	for _, v := range defects {
		bfs(v)
	}
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
	for _, v := range defects {
		if defect[v] {
			return nil, fmt.Errorf("decoder: peeling left an unmatched defect")
		}
	}
	return correction, nil
}

// naiveBPOSDDecode is the pre-optimization BPOSD.Decode.
func naiveBPOSDDecode(d *BPOSD, detBit func(int) bool) ([]bool, error) {
	correction := make([]bool, d.numObs)
	syndrome := make([]bool, len(d.dets))
	any := false
	for r, det := range d.dets {
		if detBit(det) {
			syndrome[r] = true
			any = true
		}
	}
	if !any {
		return correction, nil
	}
	nv := len(d.varDet)
	v2c := make([][]float64, nv)
	c2v := make([][]float64, nv)
	priorLLR := make([]float64, nv)
	for v := 0; v < nv; v++ {
		priorLLR[v] = math.Log((1 - d.prior[v]) / d.prior[v])
		v2c[v] = make([]float64, len(d.varDet[v]))
		c2v[v] = make([]float64, len(d.varDet[v]))
		for k := range v2c[v] {
			v2c[v][k] = priorLLR[v]
		}
	}
	rowVars := make([][]slotRef, len(d.dets))
	for v := 0; v < nv; v++ {
		for k, r := range d.varDet[v] {
			rowVars[r] = append(rowVars[r], slotRef{v, k})
		}
	}
	posterior := make([]float64, nv)
	hard := make([]bool, nv)
	for iter := 0; iter < d.Iters; iter++ {
		for r, refs := range rowVars {
			sign := 1.0
			if syndrome[r] {
				sign = -1.0
			}
			min1, min2 := math.Inf(1), math.Inf(1)
			arg1 := -1
			prod := sign
			for i, ref := range refs {
				m := v2c[ref.v][ref.k]
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
				if v2c[ref.v][ref.k] < 0 {
					s = -s
				}
				c2v[ref.v][ref.k] = 0.75 * s * mag
			}
		}
		satisfied := true
		for v := 0; v < nv; v++ {
			total := priorLLR[v]
			for k := range c2v[v] {
				total += c2v[v][k]
			}
			posterior[v] = total
			hard[v] = total < 0
			for k := range v2c[v] {
				v2c[v][k] = total - c2v[v][k]
			}
		}
		for r, refs := range rowVars {
			par := false
			for _, ref := range refs {
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
	for r, bit := range syndrome {
		if bit {
			s.Set(r, true)
		}
	}
	sol, ok := gf2.Solve(perm, s)
	if !ok {
		for v := 0; v < nv; v++ {
			if hard[v] {
				for _, o := range d.varObs[v] {
					correction[o] = !correction[o]
				}
			}
		}
		return correction, nil
	}
	for _, newCol := range sol.Support() {
		v := order[newCol]
		for _, o := range d.varObs[v] {
			correction[o] = !correction[o]
		}
	}
	return correction, nil
}

// collectFlagList returns the sorted union of all member flag detectors
// across classes (including the empty-syndrome class).
func collectFlagList(classes []dem.Class) []int {
	seen := map[int]bool{}
	for ci := range classes {
		for _, m := range classes[ci].Members {
			for _, f := range m.Flags {
				seen[f] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}

// minWeightPerfect quantizes float weights and runs the exact blossom
// minimum-weight perfect matching.
func minWeightPerfect(n int, edges []matchEdge) ([]int, error) {
	qedges := make([]matching.Edge, len(edges))
	for i, e := range edges {
		qedges[i] = quantizeEdge(e)
	}
	return matching.MinWeightPerfect(n, qedges)
}

// vertDets lists each detector vertex's detector id, in vertex order.
func vertDets(vertOf []int) []int {
	n := 0
	for _, vi := range vertOf {
		if vi >= 0 {
			n++
		}
	}
	out := make([]int, n)
	for det, vi := range vertOf {
		if vi >= 0 {
			out[vi] = det
		}
	}
	return out
}

// naiveCoverResidual is the map-based residual repair the production
// coverResidual replaced, kept as the independent reference: it
// searches for a minimum-weight subset of classes whose
// detector footprints XOR exactly to the residual. Candidates are the
// classes fully contained in the residual, with classes selected by a
// single lattice matching discounted so they are preferred. The residual
// from near-distance fault patterns is small, so a bounded DFS suffices;
// an empty result means the repair gave up.
func naiveCoverResidual(d *Restriction, residual map[int]bool, em map[int]int, applied map[int]bool, weight []float64) []int {
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

func toggle(m map[int]bool, v int) {
	if m[v] {
		delete(m, v)
	} else {
		m[v] = true
	}
}

// refDecomposeAtoms is the map-based hyperedge decomposition
// decomposeAtoms must agree with exactly: atoms indexed by a string key
// of their detector footprint.
func refDecomposeAtoms(events []dem.ProjEvent, atomMax, maxSize int) []dem.ProjEvent {
	// Index existing footprints of size ≤ atomMax by the observables of
	// their first flagless exemplar, or else of their first exemplar.
	atomObs := map[string][]int{}
	for _, flagged := range [2]bool{false, true} {
		for _, ev := range events {
			if len(ev.Dets) == 0 || len(ev.Dets) > atomMax || (len(ev.Flags) > 0) != flagged {
				continue
			}
			k := refAtomKey(ev.Dets)
			if _, ok := atomObs[k]; !ok {
				atomObs[k] = ev.Obs
			}
		}
	}
	var out []dem.ProjEvent
	for _, ev := range events {
		if len(ev.Dets) <= atomMax {
			out = append(out, ev)
			continue
		}
		if len(ev.Dets) > maxSize {
			continue
		}
		parts := refMatchDecomposition(ev.Dets, atomMax, atomObs)
		if parts == nil {
			// Fallback: consecutive pairs in sorted order.
			for i := 0; i+1 < len(ev.Dets); i += 2 {
				parts = append(parts, []int{ev.Dets[i], ev.Dets[i+1]})
			}
			if len(ev.Dets)%2 == 1 {
				parts = append(parts, []int{ev.Dets[len(ev.Dets)-1]})
			}
		}
		// Distribute observables: components inherit the obs of their
		// existing footprint; any residual lands on the first component so
		// the total stays equal to the event's obs.
		compObs := make([][]int, len(parts))
		extra := ev.Obs
		for i, part := range parts {
			compObs[i] = atomObs[refAtomKey(part)]
			extra = symDiff(extra, compObs[i])
		}
		for i, part := range parts {
			obs := compObs[i]
			if i == 0 {
				obs = symDiff(obs, extra)
			}
			out = append(out, dem.ProjEvent{
				Dets:  append([]int(nil), part...),
				Flags: ev.Flags,
				Obs:   append([]int(nil), obs...),
				P:     ev.P,
			})
		}
	}
	return out
}

// refMatchDecomposition searches for a partition of dets into existing
// footprints of size ≤ atomMax, preferring larger atoms first so that
// data-like triples beat pair splits.
func refMatchDecomposition(dets []int, atomMax int, atomObs map[string][]int) [][]int {
	var parts [][]int
	used := make([]bool, len(dets))
	var rec func() bool
	rec = func() bool {
		first := -1
		for i, u := range used {
			if !u {
				first = i
				break
			}
		}
		if first < 0 {
			return true
		}
		used[first] = true
		// Try atoms from largest to smallest containing dets[first].
		var free []int
		for j := first + 1; j < len(dets); j++ {
			if !used[j] {
				free = append(free, j)
			}
		}
		for size := atomMax; size >= 1; size-- {
			if size == 1 {
				if _, ok := atomObs[refAtomKey([]int{dets[first]})]; ok {
					parts = append(parts, []int{dets[first]})
					if rec() {
						return true
					}
					parts = parts[:len(parts)-1]
				}
				continue
			}
			// Choose size-1 companions from free.
			idx := make([]int, size-1)
			var choose func(pos, start int) bool
			choose = func(pos, start int) bool {
				if pos == size-1 {
					atom := []int{dets[first]}
					for _, fi := range idx {
						atom = append(atom, dets[fi])
					}
					sort.Ints(atom)
					if _, ok := atomObs[refAtomKey(atom)]; !ok {
						return false
					}
					for _, fi := range idx {
						used[fi] = true
					}
					parts = append(parts, atom)
					if rec() {
						return true
					}
					parts = parts[:len(parts)-1]
					for _, fi := range idx {
						used[fi] = false
					}
					return false
				}
				for k := start; k < len(free); k++ {
					idx[pos] = free[k]
					if choose(pos+1, k+1) {
						return true
					}
				}
				return false
			}
			if choose(0, 0) {
				return true
			}
		}
		used[first] = false
		return false
	}
	if rec() {
		return parts
	}
	return nil
}

// refAtomKey is the atom index's key for a sorted detector footprint.
func refAtomKey(dets []int) string {
	b := make([]byte, 0, 4*len(dets))
	for _, d := range dets {
		b = append(b, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
	}
	return string(b)
}
