// Package gf2 provides dense linear algebra over GF(2) on bit-packed
// matrices. It is the workhorse behind logical-operator computation,
// homology tests on tilings, and the color-code lifting procedure.
package gf2

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vec is a bit-packed vector over GF(2).
type Vec struct {
	n     int
	words []uint64
}

// NewVec returns the zero vector of length n.
func NewVec(n int) Vec {
	if n < 0 {
		panic("gf2: negative vector length")
	}
	return Vec{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// VecFromInts builds a vector from 0/1 entries.
func VecFromInts(bits []int) Vec {
	v := NewVec(len(bits))
	for i, b := range bits {
		if b != 0 {
			v.Set(i, true)
		}
	}
	return v
}

// VecFromSupport builds a length-n vector with ones at the given indices.
func VecFromSupport(n int, support []int) Vec {
	v := NewVec(n)
	for _, i := range support {
		v.Set(i, true)
	}
	return v
}

// Len returns the vector length.
func (v Vec) Len() int { return v.n }

// Get reports whether bit i is set.
func (v Vec) Get(i int) bool {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("gf2: index %d out of range [0,%d)", i, v.n))
	}
	return v.words[i/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// Set assigns bit i.
func (v Vec) Set(i int, b bool) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("gf2: index %d out of range [0,%d)", i, v.n))
	}
	if b {
		v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
	} else {
		v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// Flip toggles bit i.
func (v Vec) Flip(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("gf2: index %d out of range [0,%d)", i, v.n))
	}
	v.words[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

// Xor adds (XORs) u into v in place. Lengths must match.
func (v Vec) Xor(u Vec) {
	if v.n != u.n {
		panic("gf2: length mismatch in Xor")
	}
	for i := range v.words {
		v.words[i] ^= u.words[i]
	}
}

// Dot returns the GF(2) inner product of v and u.
func (v Vec) Dot(u Vec) bool {
	if v.n != u.n {
		panic("gf2: length mismatch in Dot")
	}
	var acc uint64
	for i := range v.words {
		acc ^= v.words[i] & u.words[i]
	}
	return bits.OnesCount64(acc)%2 == 1
}

// Weight returns the Hamming weight.
func (v Vec) Weight() int {
	w := 0
	for _, word := range v.words {
		w += bits.OnesCount64(word)
	}
	return w
}

// IsZero reports whether all bits are zero.
func (v Vec) IsZero() bool {
	for _, word := range v.words {
		if word != 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (v Vec) Clone() Vec {
	w := Vec{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// Equal reports element-wise equality.
func (v Vec) Equal(u Vec) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// Support returns the sorted indices of set bits.
func (v Vec) Support() []int {
	s := make([]int, 0, v.Weight())
	for wi, word := range v.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			s = append(s, wi*wordBits+b)
			word &= word - 1
		}
	}
	return s
}

// First returns the index of the lowest set bit, or -1 if v is zero.
func (v Vec) First() int {
	for wi, word := range v.words {
		if word != 0 {
			return wi*wordBits + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// String renders the vector as a 0/1 string.
func (v Vec) String() string {
	var sb strings.Builder
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Matrix is a dense GF(2) matrix stored as bit-packed rows.
type Matrix struct {
	rows, cols int
	data       []Vec
}

// NewMatrix returns the zero rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("gf2: negative matrix dimension")
	}
	m := &Matrix{rows: rows, cols: cols, data: make([]Vec, rows)}
	for i := range m.data {
		m.data[i] = NewVec(cols)
	}
	return m
}

// MatrixFromRows builds a matrix from explicit row vectors, which are
// cloned. All rows must share the same length.
func MatrixFromRows(rows []Vec, cols int) *Matrix {
	m := &Matrix{rows: len(rows), cols: cols, data: make([]Vec, len(rows))}
	for i, r := range rows {
		if r.Len() != cols {
			panic("gf2: row length mismatch")
		}
		m.data[i] = r.Clone()
	}
	return m
}

// MatrixFromSupports builds a matrix whose row i has ones at supports[i].
func MatrixFromSupports(rows, cols int, supports [][]int) *Matrix {
	if len(supports) != rows {
		panic("gf2: support count mismatch")
	}
	m := NewMatrix(rows, cols)
	for i, sup := range supports {
		for _, j := range sup {
			m.Set(i, j, true)
		}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Get returns entry (i, j).
func (m *Matrix) Get(i, j int) bool { return m.data[i].Get(j) }

// Set assigns entry (i, j).
func (m *Matrix) Set(i, j int, b bool) { m.data[i].Set(j, b) }

// Row returns row i without copying; mutating it mutates the matrix.
func (m *Matrix) Row(i int) Vec { return m.data[i] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{rows: m.rows, cols: m.cols, data: make([]Vec, m.rows)}
	for i := range m.data {
		c.data[i] = m.data[i].Clone()
	}
	return c
}

// MulVec returns m * x for a column vector x of length Cols.
func (m *Matrix) MulVec(x Vec) Vec {
	if x.Len() != m.cols {
		panic("gf2: dimension mismatch in MulVec")
	}
	y := NewVec(m.rows)
	for i := 0; i < m.rows; i++ {
		if m.data[i].Dot(x) {
			y.Set(i, true)
		}
	}
	return y
}

// Transpose returns the transposed matrix.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for _, j := range m.data[i].Support() {
			t.Set(j, i, true)
		}
	}
	return t
}

// String renders the matrix one row per line.
func (m *Matrix) String() string {
	lines := make([]string, m.rows)
	for i := range m.data {
		lines[i] = m.data[i].String()
	}
	return strings.Join(lines, "\n")
}
