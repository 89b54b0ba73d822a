// Package group provides the finite-group machinery used to generate
// hyperbolic {r,s} tilings: permutation arithmetic, BFS enumeration of a
// group from generators, projective linear groups PSL/PGL(2,q) as
// permutation groups on the projective line, and the search for
// (2,r,s)-generating pairs that the tiling package turns into closed
// combinatorial maps. It replaces the paper's use of the GAP
// computer-algebra system.
package group

import "fmt"

// Perm is a permutation of {0..n-1}; p[i] is the image of i.
type Perm []int

// Identity returns the identity permutation on n points.
func Identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// FromCycles builds a permutation on n points from disjoint cycles.
func FromCycles(n int, cycles [][]int) Perm {
	p := Identity(n)
	for _, c := range cycles {
		for i, x := range c {
			y := c[(i+1)%len(c)]
			if x < 0 || x >= n {
				panic(fmt.Sprintf("group: cycle point %d out of range", x))
			}
			p[x] = y
		}
	}
	return p
}

// Mul returns the composition p∘q: (p.Mul(q))(i) = p(q(i)).
func (p Perm) Mul(q Perm) Perm {
	if len(p) != len(q) {
		panic("group: degree mismatch in Mul")
	}
	r := make(Perm, len(p))
	for i := range r {
		r[i] = p[q[i]]
	}
	return r
}

// Inverse returns the inverse permutation.
func (p Perm) Inverse() Perm {
	r := make(Perm, len(p))
	for i, v := range p {
		r[v] = i
	}
	return r
}

// IsIdentity reports whether p fixes every point.
func (p Perm) IsIdentity() bool {
	for i, v := range p {
		if v != i {
			return false
		}
	}
	return true
}

// Equal reports whether p and q are the same permutation.
func (p Perm) Equal(q Perm) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Order returns the multiplicative order of p.
func (p Perm) Order() int {
	order := 1
	seen := make([]bool, len(p))
	for i := range p {
		if seen[i] {
			continue
		}
		clen := 0
		for j := i; !seen[j]; j = p[j] {
			seen[j] = true
			clen++
		}
		order = lcm(order, clen)
	}
	return order
}

// Cycles returns the cycle decomposition including fixed points.
func (p Perm) Cycles() [][]int {
	var cycles [][]int
	seen := make([]bool, len(p))
	for i := range p {
		if seen[i] {
			continue
		}
		var c []int
		for j := i; !seen[j]; j = p[j] {
			seen[j] = true
			c = append(c, j)
		}
		cycles = append(cycles, c)
	}
	return cycles
}

// CycleType returns the multiset of cycle lengths, sorted descending is
// not guaranteed; it maps length → count.
func (p Perm) CycleType() map[int]int {
	ct := make(map[int]int)
	for _, c := range p.Cycles() {
		ct[len(c)]++
	}
	return ct
}

// AllCyclesLen reports whether every cycle of p has exactly length l.
func (p Perm) AllCyclesLen(l int) bool {
	seen := make([]bool, len(p))
	for i := range p {
		if seen[i] {
			continue
		}
		clen := 0
		for j := i; !seen[j]; j = p[j] {
			seen[j] = true
			clen++
		}
		if clen != l {
			return false
		}
	}
	return true
}

// Pow returns p raised to the k-th power (k may be negative).
func (p Perm) Pow(k int) Perm {
	n := len(p)
	base := p
	if k < 0 {
		base = p.Inverse()
		k = -k
	}
	r := Identity(n)
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			r = r.Mul(base)
		}
		base = base.Mul(base)
	}
	return r
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }
