package gf2

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecBasics(t *testing.T) {
	v := NewVec(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	v.Set(0, true)
	v.Set(64, true)
	v.Set(129, true)
	if !v.Get(0) || !v.Get(64) || !v.Get(129) {
		t.Fatal("set bits not readable")
	}
	if v.Get(1) || v.Get(63) || v.Get(128) {
		t.Fatal("unset bits read as set")
	}
	if v.Weight() != 3 {
		t.Fatalf("Weight = %d, want 3", v.Weight())
	}
	v.Flip(64)
	if v.Get(64) || v.Weight() != 2 {
		t.Fatal("Flip failed")
	}
	sup := v.Support()
	if len(sup) != 2 || sup[0] != 0 || sup[1] != 129 {
		t.Fatalf("Support = %v", sup)
	}
	if f := v.First(); f != 0 {
		t.Fatalf("First = %d, want 0", f)
	}
	v.Flip(0)
	if f := v.First(); f != 129 {
		t.Fatalf("First = %d, want 129", f)
	}
}

func TestVecFromSupportAndInts(t *testing.T) {
	a := VecFromSupport(10, []int{1, 3, 7})
	b := VecFromInts([]int{0, 1, 0, 1, 0, 0, 0, 1, 0, 0})
	if !a.Equal(b) {
		t.Fatalf("a=%v b=%v", a, b)
	}
}

func TestVecXorDot(t *testing.T) {
	a := VecFromSupport(100, []int{2, 50, 99})
	b := VecFromSupport(100, []int{2, 51, 99})
	if !a.Dot(b) == false {
		// overlap {2,99}: even → dot = 0
		t.Fatal("Dot parity wrong")
	}
	c := a.Clone()
	c.Xor(b)
	want := VecFromSupport(100, []int{50, 51})
	if !c.Equal(want) {
		t.Fatalf("Xor = %v, want %v", c, want)
	}
	if a.Dot(VecFromSupport(100, []int{50})) != true {
		t.Fatal("odd overlap should give 1")
	}
}

func TestVecPanicsOnBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range Get")
		}
	}()
	v := NewVec(5)
	v.Get(5)
}

func TestVecZeroLength(t *testing.T) {
	v := NewVec(0)
	if !v.IsZero() || v.Weight() != 0 || len(v.Support()) != 0 || v.First() != -1 {
		t.Fatal("zero-length vector misbehaves")
	}
}

func TestMatrixMulVec(t *testing.T) {
	// [[1,1,0],[0,1,1]] * [1,0,1] = [1,1]
	m := MatrixFromSupports(2, 3, [][]int{{0, 1}, {1, 2}})
	x := VecFromSupport(3, []int{0, 2})
	y := m.MulVec(x)
	if !y.Equal(VecFromSupport(2, []int{0, 1})) {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestTranspose(t *testing.T) {
	m := MatrixFromSupports(2, 3, [][]int{{0, 2}, {1}})
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("Transpose dims %dx%d", tr.Rows(), tr.Cols())
	}
	if !tr.Get(0, 0) || !tr.Get(2, 0) || !tr.Get(1, 1) || tr.Get(0, 1) {
		t.Fatal("Transpose entries wrong")
	}
}

func TestRankIdentity(t *testing.T) {
	n := 20
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, true)
	}
	if Rank(m) != n {
		t.Fatalf("Rank(I) = %d, want %d", Rank(m), n)
	}
}

func TestRankDependentRows(t *testing.T) {
	// row2 = row0 + row1
	m := MatrixFromSupports(3, 4, [][]int{{0, 1}, {1, 2}, {0, 2}})
	if r := Rank(m); r != 2 {
		t.Fatalf("Rank = %d, want 2", r)
	}
}

func TestSolveConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		m := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, rng.Intn(2) == 1)
			}
		}
		// Construct a consistent rhs from a random x.
		x := NewVec(cols)
		for j := 0; j < cols; j++ {
			x.Set(j, rng.Intn(2) == 1)
		}
		b := m.MulVec(x)
		sol, ok := Solve(m, b)
		if !ok {
			t.Fatalf("trial %d: consistent system reported unsolvable", trial)
		}
		if !m.MulVec(sol).Equal(b) {
			t.Fatalf("trial %d: solution does not satisfy system", trial)
		}
	}
}

func TestSolveInconsistent(t *testing.T) {
	// x0 = 0 and x0 = 1 simultaneously.
	m := MatrixFromSupports(2, 1, [][]int{{0}, {0}})
	b := VecFromInts([]int{0, 1})
	if _, ok := Solve(m, b); ok {
		t.Fatal("inconsistent system reported solvable")
	}
}

func TestNullspaceBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(14)
		m := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, rng.Intn(2) == 1)
			}
		}
		basis := NullspaceBasis(m)
		if len(basis) != cols-Rank(m) {
			t.Fatalf("nullity = %d, want %d", len(basis), cols-Rank(m))
		}
		for _, v := range basis {
			if !m.MulVec(v).IsZero() {
				t.Fatal("basis vector not in nullspace")
			}
		}
		// Basis must be independent.
		if len(basis) > 0 {
			bm := MatrixFromRows(basis, cols)
			if Rank(bm) != len(basis) {
				t.Fatal("nullspace basis dependent")
			}
		}
	}
}

func TestInRowSpaceAndReduce(t *testing.T) {
	m := MatrixFromSupports(2, 4, [][]int{{0, 1}, {2, 3}})
	e := RowReduce(m)
	if !e.InRowSpace(VecFromSupport(4, []int{0, 1, 2, 3})) {
		t.Fatal("sum of rows should be in row space")
	}
	if e.InRowSpace(VecFromSupport(4, []int{0})) {
		t.Fatal("e0 should not be in row space")
	}
	red := e.Reduce(VecFromSupport(4, []int{0, 1}))
	if !red.IsZero() {
		t.Fatalf("Reduce of row gives %v, want zero", red)
	}
}

// Property: rank is invariant under transpose.
func TestPropertyRankTransposeInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(15), 1+rng.Intn(15)
		m := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, rng.Intn(2) == 1)
			}
		}
		return Rank(m) == Rank(m.Transpose())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Xor is an involution (v ^ u ^ u == v).
func TestPropertyXorInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		v, u := NewVec(n), NewVec(n)
		for i := 0; i < n; i++ {
			v.Set(i, rng.Intn(2) == 1)
			u.Set(i, rng.Intn(2) == 1)
		}
		w := v.Clone()
		w.Xor(u)
		w.Xor(u)
		return w.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every vector reduced modulo the row space lands back in the
// same coset (difference in row space).
func TestPropertyReduceCoset(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(12)
		m := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, rng.Intn(2) == 1)
			}
		}
		e := RowReduce(m)
		v := NewVec(cols)
		for j := 0; j < cols; j++ {
			v.Set(j, rng.Intn(2) == 1)
		}
		r := e.Reduce(v)
		diff := r.Clone()
		diff.Xor(v)
		return e.InRowSpace(diff)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRank256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(256, 256)
	for i := 0; i < 256; i++ {
		for j := 0; j < 256; j++ {
			m.Set(i, j, rng.Intn(2) == 1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Rank(m)
	}
}
