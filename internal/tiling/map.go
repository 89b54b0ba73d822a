// Package tiling builds and analyzes closed-surface combinatorial maps
// ("rotation systems"), the geometric substrate of hyperbolic surface and
// color codes. A map is a set of darts (directed edge sides) with a
// vertex-rotation permutation Sigma and a fixed-point-free dart-reversal
// involution Alpha; faces are the orbits of Phi = Sigma∘Alpha. Maps are
// produced either from (2,r,s) group generating pairs (regular maps) or
// from a direct backtracking search over dart permutations.
package tiling

import (
	"fmt"

	"github.com/fpn/flagproxy/internal/group"
)

// Map is a connected closed orientable combinatorial map.
type Map struct {
	NDarts int
	Sigma  []int // vertex rotation: next dart counterclockwise around the source vertex
	Alpha  []int // dart reversal (involution, no fixed points)

	// Derived incidence data, populated by finish().
	DartVertex []int   // orbit id of dart under Sigma
	DartEdge   []int   // orbit id under Alpha
	DartFace   []int   // orbit id under Phi
	Vertices   [][]int // darts per vertex, in rotation order
	Edges      [][]int // the two darts per edge
	Faces      [][]int // darts per face, in face-walk order
}

// New validates the permutations and computes incidence data.
func New(sigma, alpha []int) (*Map, error) {
	n := len(sigma)
	if len(alpha) != n {
		return nil, fmt.Errorf("tiling: sigma/alpha length mismatch")
	}
	if n == 0 || n%2 != 0 {
		return nil, fmt.Errorf("tiling: dart count %d must be positive and even", n)
	}
	if !isPerm(sigma) || !isPerm(alpha) {
		return nil, fmt.Errorf("tiling: sigma or alpha is not a permutation")
	}
	for d := 0; d < n; d++ {
		if alpha[d] == d || alpha[alpha[d]] != d {
			return nil, fmt.Errorf("tiling: alpha is not a fixed-point-free involution at dart %d", d)
		}
	}
	m := &Map{NDarts: n, Sigma: append([]int(nil), sigma...), Alpha: append([]int(nil), alpha...)}
	m.finish()
	if !m.connected() {
		return nil, fmt.Errorf("tiling: map is not connected")
	}
	return m, nil
}

func isPerm(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func orbits(perm []int) (id []int, orb [][]int) {
	id = make([]int, len(perm))
	for i := range id {
		id[i] = -1
	}
	for d := range perm {
		if id[d] >= 0 {
			continue
		}
		var o []int
		for x := d; id[x] < 0; x = perm[x] {
			id[x] = len(orb)
			o = append(o, x)
		}
		orb = append(orb, o)
	}
	return id, orb
}

func (m *Map) finish() {
	m.DartVertex, m.Vertices = orbits(m.Sigma)
	m.DartEdge, m.Edges = orbits(m.Alpha)
	phi := m.Phi()
	m.DartFace, m.Faces = orbits(phi)
}

// Phi returns the face permutation Sigma∘Alpha.
func (m *Map) Phi() []int {
	phi := make([]int, m.NDarts)
	for d := range phi {
		phi[d] = m.Sigma[m.Alpha[d]]
	}
	return phi
}

func (m *Map) connected() bool {
	seen := make([]bool, m.NDarts)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		d := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nd := range []int{m.Sigma[d], m.Alpha[d]} {
			if !seen[nd] {
				seen[nd] = true
				count++
				stack = append(stack, nd)
			}
		}
	}
	return count == m.NDarts
}

// V, E, F return the vertex, edge and face counts.
func (m *Map) V() int { return len(m.Vertices) }
func (m *Map) E() int { return len(m.Edges) }
func (m *Map) F() int { return len(m.Faces) }

// EulerChar returns V - E + F.
func (m *Map) EulerChar() int { return m.V() - m.E() + m.F() }

// Genus returns the orientable genus (2 - χ)/2.
func (m *Map) Genus() int { return (2 - m.EulerChar()) / 2 }

// IsEquivelar reports whether every face has exactly r darts and every
// vertex exactly s darts.
func (m *Map) IsEquivelar(r, s int) bool {
	for _, f := range m.Faces {
		if len(f) != r {
			return false
		}
	}
	for _, v := range m.Vertices {
		if len(v) != s {
			return false
		}
	}
	return true
}

// NonDegenerate reports whether every face touches len(face) distinct
// edges and every vertex len(vertex) distinct edges (no repeated data
// qubits in a check), and no face is glued to itself along an edge.
func (m *Map) NonDegenerate() bool {
	for _, f := range m.Faces {
		seen := map[int]bool{}
		for _, d := range f {
			e := m.DartEdge[d]
			if seen[e] {
				return false
			}
			seen[e] = true
		}
	}
	for _, v := range m.Vertices {
		seen := map[int]bool{}
		for _, d := range v {
			e := m.DartEdge[d]
			if seen[e] {
				return false
			}
			seen[e] = true
		}
	}
	return true
}

// Dual returns the dual map (faces ↔ vertices): Sigma* = Phi, Alpha* = Alpha.
func (m *Map) Dual() *Map {
	d := &Map{NDarts: m.NDarts, Sigma: m.Phi(), Alpha: append([]int(nil), m.Alpha...)}
	d.finish()
	return d
}

// VertexEdges returns, per vertex, the sorted distinct incident edge ids.
func (m *Map) VertexEdges() [][]int {
	out := make([][]int, m.V())
	for v, darts := range m.Vertices {
		for _, d := range darts {
			out[v] = append(out[v], m.DartEdge[d])
		}
	}
	return out
}

// FaceEdges returns, per face, the edge ids along the face walk.
func (m *Map) FaceEdges() [][]int {
	out := make([][]int, m.F())
	for f, darts := range m.Faces {
		for _, d := range darts {
			out[f] = append(out[f], m.DartEdge[d])
		}
	}
	return out
}

// EdgeEndpoints returns the two vertex ids of each edge.
func (m *Map) EdgeEndpoints() [][2]int {
	out := make([][2]int, m.E())
	for e, darts := range m.Edges {
		out[e] = [2]int{m.DartVertex[darts[0]], m.DartVertex[darts[1]]}
	}
	return out
}

// FromGroupPair builds the regular map whose darts are the elements of
// the subgroup generated by pair (X of order s, Y of order 2): the map is
// equivelar of type {r, s} where r is the order of X·Y. Left
// multiplication by X is the vertex rotation and by Y the dart reversal.
func FromGroupPair(p group.RSPair) (*Map, error) {
	h := p.Sub
	n := h.Order()
	sigma := make([]int, n)
	alpha := make([]int, n)
	for i, e := range h.Elements {
		si, okX := h.Index(p.X.Mul(e))
		ai, okY := h.Index(p.Y.Mul(e))
		if !okX || !okY {
			return nil, fmt.Errorf("tiling: rotation pair does not lie in its subgroup")
		}
		sigma[i], alpha[i] = si, ai
	}
	return New(sigma, alpha)
}
