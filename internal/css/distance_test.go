package css_test

import (
	"math/rand"
	"testing"

	"github.com/fpn/flagproxy/internal/catalog"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/gf2"
	"github.com/fpn/flagproxy/internal/hgp"
	"github.com/fpn/flagproxy/internal/surface"
)

// bruteSteps caps the enumeration one MinLogicalExact call may spend; the
// weight each code is brute-forced to is the largest whose subsets fit.
const bruteSteps = 2_000_000

// affordableWeight returns the largest w ≤ n such that all subsets of
// weight ≤ w number at most bruteSteps/4, leaving room for the inner
// enumeration steps the reference also counts.
func affordableWeight(n int) int {
	total, binom := 1.0, 1.0
	for w := 1; w <= n; w++ {
		binom = binom * float64(n-w+1) / float64(w)
		if total += binom; total > bruteSteps/4 {
			return w - 1
		}
	}
	return n
}

// checkAgainstBruteForce compares MinLogical with the brute-force
// MinLogicalExact in both bases of c. Where the brute force certifies a
// value (or that there is no logical), MinLogical must give the same
// value and exactness; where it only certifies a lower bound, MinLogical
// must be exact and above it.
func checkAgainstBruteForce(t *testing.T, c *css.Code) {
	t.Helper()
	hx, hz := c.CheckMatrix(css.X), c.CheckMatrix(css.Z)
	for _, b := range []struct {
		name       string
		hKer, hMod *gf2.Matrix
	}{{"dZ", hx, hz}, {"dX", hz, hx}} {
		got := css.MinLogical(b.hKer, b.hMod)
		ref := css.MinLogicalExact(b.hKer, b.hMod, affordableWeight(c.N), bruteSteps)
		switch {
		case ref.Exact || c.K == 0:
			if got.D != ref.D || got.Exact != ref.Exact {
				t.Fatalf("%s [[%d,%d]] %s: MinLogical %+v, brute force %+v", c.Name, c.N, c.K, b.name, got, ref)
			}
		case !got.Exact || got.D <= ref.LowerBound:
			t.Fatalf("%s [[%d,%d]] %s: MinLogical %+v, brute force excludes weights ≤ %d", c.Name, c.N, c.K, b.name, got, ref.LowerBound)
		}
		if got.Exact && got.LowerBound != got.D-1 {
			t.Fatalf("%s %s: exact result %+v has lower bound ≠ D-1", c.Name, b.name, got)
		}
	}
}

// commutingCode builds a CSS code on 4–12 qubits from bytes: X checks
// straight from the bits, Z checks as byte-chosen sums of a basis of
// ker(HX), so every X check commutes with every Z check. Missing bytes
// read as zero. It returns nil when the bytes give no check.
func commutingCode(t *testing.T, data []byte) *css.Code {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 4 + next()%9
	var checks []css.Check
	var xs [][]int
	for i, nx := 0, 1+next()%(n/2); i < nx; i++ {
		var sup []int
		bits := next() | next()<<8
		for q := 0; q < n; q++ {
			if bits>>q&1 == 1 {
				sup = append(sup, q)
			}
		}
		if len(sup) > 0 {
			xs = append(xs, sup)
			checks = append(checks, css.Check{Basis: css.X, Support: sup, Color: -1})
		}
	}
	ker := gf2.NullspaceBasis(gf2.MatrixFromSupports(len(xs), n, xs))
	for i, nz := 0, 1+next()%(n/2); i < nz; i++ {
		v := gf2.NewVec(n)
		bits := next() | next()<<8
		for j, u := range ker {
			if bits>>j&1 == 1 {
				v.Xor(u)
			}
		}
		if sup := v.Support(); len(sup) > 0 {
			checks = append(checks, css.Check{Basis: css.Z, Support: sup, Color: -1})
		}
	}
	if len(checks) == 0 {
		return nil
	}
	c, err := css.New("commuting", "test", n, checks)
	if err != nil {
		t.Fatal(err) // the construction commutes by design
	}
	return c
}

// TestMinLogicalMatchesBruteForce is the differential test of the
// connected-support search on random small CSS codes: hypergraph
// products of random LDPC codes and random commuting check sets.
func TestMinLogicalMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{{3, 2, 4}, {4, 2, 3}, {4, 3, 3}, {3, 3, 4}}
	for i := 0; i < 16; i++ {
		s1, s2 := shapes[rng.Intn(len(shapes))], shapes[rng.Intn(len(shapes))]
		c1, err := hgp.RandomLDPC(s1[0], s1[1], s1[2], rng)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := hgp.RandomLDPC(s2[0], s2[1], s2[2], rng)
		if err != nil {
			t.Fatal(err)
		}
		code, err := hgp.Product(c1, c2, "hgp-rand")
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstBruteForce(t, code)
	}
	data := make([]byte, 27)
	for i := 0; i < 300; i++ {
		rng.Read(data)
		if c := commutingCode(t, data); c != nil {
			checkAgainstBruteForce(t, c)
		}
	}
}

// TestMinLogicalMatchesBruteForceCatalogue runs the same comparison on
// the rotated codes and every catalogue code, up to the weight the brute
// force can afford at each length.
func TestMinLogicalMatchesBruteForceCatalogue(t *testing.T) {
	for _, d := range []int{3, 5} {
		l, err := surface.Rotated(d)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstBruteForce(t, l.Code)
	}
	if testing.Short() {
		t.Skip("full catalogue is slow")
	}
	for _, e := range catalog.Standard() {
		checkAgainstBruteForce(t, e.Code)
	}
}

func FuzzMinLogical(f *testing.F) {
	f.Add([]byte{5, 0, 0x0f, 0, 1, 0xff, 0xff})
	f.Add([]byte{10, 3, 0x33, 0, 0xcc, 0, 0x0f, 0x0f, 0xf0, 0, 2, 0x05, 0, 0x0a, 0, 0xff, 0})
	f.Add([]byte{6, 1, 0x0f, 0, 0x3c, 0, 0, 0x03, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if c := commutingCode(t, data); c != nil {
			checkAgainstBruteForce(t, c)
		}
	})
}
