// Package surface builds surface codes: hyperbolic surface codes from
// closed {r,s} combinatorial maps (edges→data, faces→Z checks,
// vertices→X checks) and the rotated planar surface code baseline. It
// also computes exact code distances for the hyperbolic family via
// homology: the shortest homologically non-trivial cycle, found exactly
// among the fundamental cycles of one BFS tree per vertex.
package surface

import (
	"fmt"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/gf2"
	"github.com/fpn/flagproxy/internal/tiling"
)

// FromMap constructs the hyperbolic surface code of a closed map: each
// edge is a data qubit, each face a Z check, each vertex an X check.
// Distances are computed exactly via homology.
func FromMap(m *tiling.Map, name, family string) (*css.Code, error) {
	if !m.NonDegenerate() {
		return nil, fmt.Errorf("surface: degenerate map (repeated edge in a face or vertex)")
	}
	var checks []css.Check
	for _, edges := range m.FaceEdges() {
		checks = append(checks, css.Check{Basis: css.Z, Support: append([]int(nil), edges...), Color: -1})
	}
	for _, edges := range m.VertexEdges() {
		checks = append(checks, css.Check{Basis: css.X, Support: append([]int(nil), edges...), Color: -1})
	}
	code, err := css.New(name, family, m.E(), checks)
	if err != nil {
		return nil, err
	}
	if code.K != 2*m.Genus() {
		return nil, fmt.Errorf("surface: k=%d does not match 2g=%d", code.K, 2*m.Genus())
	}
	dz := ShortestNontrivialCycle(m)
	dx := ShortestNontrivialCycle(m.Dual())
	code.DZ, code.DZExact = dz, true
	code.DX, code.DXExact = dx, true
	return code, nil
}

// ShortestNontrivialCycle returns the length of the shortest cycle in the
// map's graph that is homologically non-trivial (not a sum of face
// boundaries). This is the Z distance of the associated surface code.
//
// Method: a closed chain c is non-trivial iff λ·c = 1 for some λ in the
// orthogonal complement of the face space, i.e. λ ∈ ker(H_Z); the
// coboundaries in that kernel vanish on every closed chain, so any basis
// of ker(H_Z) serves. From every vertex v one BFS tree records, for each
// reached vertex u, its depth d(u) and the parities p(u) of its tree path
// under all basis functionals at once, packed into 64-bit words. A
// non-tree edge e=(a,b) closes a cycle of length d(a)+d(b)+1 through v,
// non-trivial iff p(a)⊕p(b)⊕λ(e) ≠ 0. This is exact: every such cycle is
// a closed chain, so none is shorter than the distance, and a shortest
// non-trivial cycle C through v is the Z₂ sum of the fundamental cycles
// of its non-tree edges, so one of them, closed by an edge (a,b) of C,
// is non-trivial with d(a)+d(b)+1 ≤ |C|.
func ShortestNontrivialCycle(m *tiling.Map) int {
	nE := m.E()
	hz := gf2.MatrixFromSupports(m.F(), nE, m.FaceEdges())
	lambdas := gf2.NullspaceBasis(hz)
	words := (len(lambdas) + 63) / 64
	// lam[e*words : (e+1)*words] packs λ_i(e) for every basis functional i.
	lam := make([]uint64, nE*words)
	for i, lambda := range lambdas {
		for _, e := range lambda.Support() {
			lam[e*words+i/64] |= 1 << (i % 64)
		}
	}
	eps := m.EdgeEndpoints()
	nV := m.V()
	// Adjacency: per vertex, list of (neighbor, edge id).
	type arc struct{ to, edge int }
	adj := make([][]arc, nV)
	for e, ep := range eps {
		adj[ep[0]] = append(adj[ep[0]], arc{ep[1], e})
		adj[ep[1]] = append(adj[ep[1]], arc{ep[0], e})
	}
	best := nE + 1
	dist := make([]int, nV)
	treeEdge := make([]int, nV)
	par := make([]uint64, nV*words)
	queue := make([]int, 0, nV)
	for v := 0; v < nV; v++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[v], treeEdge[v] = 0, -1
		clear(par[v*words : (v+1)*words])
		queue = append(queue[:0], v)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			// Every edge examined from here on closes a cycle of length
			// at least 2·d(u).
			if 2*dist[u] >= best {
				break
			}
			pu := par[u*words : (u+1)*words]
			for _, a := range adj[u] {
				le := lam[a.edge*words : (a.edge+1)*words]
				if dist[a.to] < 0 {
					dist[a.to], treeEdge[a.to] = dist[u]+1, a.edge
					pw := par[a.to*words : (a.to+1)*words]
					for i := range pw {
						pw[i] = pu[i] ^ le[i]
					}
					queue = append(queue, a.to)
					continue
				}
				if a.edge == treeEdge[u] || dist[u]+dist[a.to]+1 >= best {
					continue
				}
				pw := par[a.to*words : (a.to+1)*words]
				for i := range pw {
					if pu[i]^pw[i]^le[i] != 0 {
						best = dist[u] + dist[a.to] + 1
						break
					}
				}
			}
		}
	}
	if best > nE {
		return 0 // no non-trivial cycle: genus 0
	}
	return best
}
