// Package css represents CSS stabilizer codes: parity checks over data
// qubits, logical operators, and code parameters [[n, k, dX, dZ]]. It is
// the common currency between the code constructions (surface, color),
// the Flag-Proxy Network builder, the scheduler and the simulator.
package css

import (
	"fmt"
	"sort"

	"github.com/fpn/flagproxy/internal/gf2"
)

// Basis of a parity check.
type Basis byte

// Check bases.
const (
	X Basis = 'X'
	Z Basis = 'Z'
)

// Check is a single stabilizer generator.
type Check struct {
	Basis   Basis
	Support []int // data-qubit indices, distinct
	Color   int   // plaquette color for color codes; -1 otherwise
}

// Code is a CSS code with computed logical structure.
type Code struct {
	Name   string
	Family string // e.g. "hyperbolic-surface {4,5}", "planar-surface"
	N      int
	Checks []Check

	K        int
	LogicalX []gf2.Vec // k independent X logical representatives
	LogicalZ []gf2.Vec // k independent Z logical representatives

	// Distances; 0 means unknown. The Exact flags record whether the
	// value is certified, or an upper bound (the lightest logical-basis
	// vector) because MinLogical ran out of its node budget.
	DX, DZ           int
	DXExact, DZExact bool
}

// New validates the checks (distinct supports, X/Z commutation) and
// computes K and logical operator bases.
func New(name, family string, n int, checks []Check) (*Code, error) {
	if n <= 0 {
		return nil, fmt.Errorf("css: non-positive qubit count %d", n)
	}
	for ci, c := range checks {
		if c.Basis != X && c.Basis != Z {
			return nil, fmt.Errorf("css: check %d has invalid basis %q", ci, c.Basis)
		}
		seen := map[int]bool{}
		for _, q := range c.Support {
			if q < 0 || q >= n {
				return nil, fmt.Errorf("css: check %d references qubit %d out of range", ci, q)
			}
			if seen[q] {
				return nil, fmt.Errorf("css: check %d repeats qubit %d", ci, q)
			}
			seen[q] = true
		}
		if len(c.Support) == 0 {
			return nil, fmt.Errorf("css: check %d is empty", ci)
		}
	}
	code := &Code{Name: name, Family: family, N: n, Checks: checks}
	hx := code.CheckMatrix(X)
	hz := code.CheckMatrix(Z)
	// Commutation: HX * HZ^T = 0.
	for i := 0; i < hx.Rows(); i++ {
		for j := 0; j < hz.Rows(); j++ {
			if hx.Row(i).Dot(hz.Row(j)) {
				return nil, fmt.Errorf("css: X check %d anticommutes with Z check %d", i, j)
			}
		}
	}
	rx := gf2.Rank(hx)
	rz := gf2.Rank(hz)
	code.K = n - rx - rz
	if code.K < 0 {
		return nil, fmt.Errorf("css: negative k (n=%d, rankX=%d, rankZ=%d)", n, rx, rz)
	}
	code.LogicalZ = logicalBasis(hx, hz, code.K) // Z logicals: ker(HX) / row(HZ)
	code.LogicalX = logicalBasis(hz, hx, code.K) // X logicals: ker(HZ) / row(HX)
	return code, nil
}

// CheckMatrix returns the parity-check matrix of the given basis, one row
// per check of that basis in order.
func (c *Code) CheckMatrix(b Basis) *gf2.Matrix {
	var sups [][]int
	for _, ch := range c.Checks {
		if ch.Basis == b {
			sups = append(sups, ch.Support)
		}
	}
	return gf2.MatrixFromSupports(len(sups), c.N, sups)
}

// ChecksOf returns the indices (into Checks) of checks with basis b.
func (c *Code) ChecksOf(b Basis) []int {
	var out []int
	for i, ch := range c.Checks {
		if ch.Basis == b {
			out = append(out, i)
		}
	}
	return out
}

// logicalBasis returns k independent representatives of
// ker(hKer) / rowspace(hMod): the first nullspace vectors, in order, that
// are independent of the stabilizer and of the vectors already chosen.
// One incremental echelon decides each candidate: the RREF rows of hMod
// plus every accepted candidate reduced against the rows before it, each
// under a pivot no earlier row has.
func logicalBasis(hKer, hMod *gf2.Matrix, k int) []gf2.Vec {
	mod := gf2.RowReduce(hMod)
	rows := make([]gf2.Vec, 0, mod.Rank+k)
	pivots := make([]int, 0, mod.Rank+k)
	for r := 0; r < mod.Rank; r++ {
		rows = append(rows, mod.M.Row(r))
		pivots = append(pivots, mod.Pivots[r])
	}
	var logicals []gf2.Vec
	for _, v := range gf2.NullspaceBasis(hKer) {
		w := v.Clone()
		for r, row := range rows {
			if w.Get(pivots[r]) {
				w.Xor(row)
			}
		}
		pivot := w.First()
		if pivot < 0 {
			continue // in the span of the stabilizer and the chosen logicals
		}
		logicals = append(logicals, v)
		if len(logicals) == k {
			break
		}
		rows = append(rows, w)
		pivots = append(pivots, pivot)
	}
	return logicals
}

// Weights returns the sorted distinct check weights per basis.
func (c *Code) Weights(b Basis) []int {
	set := map[int]bool{}
	for _, ch := range c.Checks {
		if ch.Basis == b {
			set[len(ch.Support)] = true
		}
	}
	out := make([]int, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// MaxWeight returns the maximum check weight of basis b (0 if none).
func (c *Code) MaxWeight(b Basis) int {
	w := 0
	for _, ch := range c.Checks {
		if ch.Basis == b && len(ch.Support) > w {
			w = len(ch.Support)
		}
	}
	return w
}

// Params formats the code parameters as [[n,k,dX,dZ]].
func (c *Code) Params() string {
	if c.DX > 0 && c.DZ > 0 {
		if c.DX == c.DZ {
			return fmt.Sprintf("[[%d,%d,%d]]", c.N, c.K, c.DX)
		}
		return fmt.Sprintf("[[%d,%d,%d,%d]]", c.N, c.K, c.DX, c.DZ)
	}
	return fmt.Sprintf("[[%d,%d,?]]", c.N, c.K)
}

// IdealRate returns k/n.
func (c *Code) IdealRate() float64 { return float64(c.K) / float64(c.N) }
