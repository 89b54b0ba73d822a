package group

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// permKey is the decimal string key the reference enumeration stores
// elements under.
func permKey(p Perm) string {
	var sb strings.Builder
	sb.Grow(len(p) * 3)
	for _, v := range p {
		sb.WriteString(strconv.Itoa(v))
		sb.WriteByte(',')
	}
	return sb.String()
}

// NaiveGenerate is the reference enumeration Generate must agree with
// element for element: a level-by-level BFS that allocates every product
// and indexes elements by their string keys.
func NaiveGenerate(gens []Perm, limit int) ([]Perm, bool) {
	index := map[string]int{}
	id := Identity(len(gens[0]))
	elems := []Perm{id}
	index[permKey(id)] = 0
	frontier := []Perm{id}
	for len(frontier) > 0 {
		var next []Perm
		for _, e := range frontier {
			for _, gen := range gens {
				prod := gen.Mul(e)
				k := permKey(prod)
				if _, ok := index[k]; !ok {
					if len(elems) >= limit {
						return nil, false
					}
					index[k] = len(elems)
					elems = append(elems, prod)
					next = append(next, prod)
				}
			}
		}
		frontier = next
	}
	return elems, true
}

// NaiveFindRSPairs is the reference pair search FindRSPairs must agree
// with: the same rng draws, but a full string-keyed enumeration per try.
// It returns the kept pairs' generators and subgroup elements.
func NaiveFindRSPairs(g *Group, s, r int, rng *rand.Rand, tries, maxResults, maxSub int) (xs, ys []Perm, subs [][]Perm) {
	ordS := g.ElementsOfOrder(s)
	ord2 := g.ElementsOfOrder(2)
	if len(ordS) == 0 || len(ord2) == 0 {
		return nil, nil, nil
	}
	seenOrders := map[int]bool{}
	for t := 0; t < tries && len(subs) < maxResults; t++ {
		x := ordS[rng.Intn(len(ordS))]
		y := ord2[rng.Intn(len(ord2))]
		if x.Mul(y).Order() != r {
			continue
		}
		sub, ok := NaiveGenerate([]Perm{x, y}, maxSub+1)
		if !ok {
			continue
		}
		n := len(sub)
		if n%2 != 0 || n%s != 0 || n%r != 0 || seenOrders[n] {
			continue
		}
		seenOrders[n] = true
		xs, ys, subs = append(xs, x), append(ys, y), append(subs, sub)
	}
	return xs, ys, subs
}

func samePerms(got, want []Perm) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d elements, reference has %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("element %d is %v, reference has %v", i, got[i], want[i])
		}
	}
	return nil
}

func TestGenerateMatchesNaive(t *testing.T) {
	for _, m := range Menu() {
		g, err := m.Build()
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		want, ok := NaiveGenerate(g.gens, g.Order()+1)
		if !ok {
			t.Fatalf("%s: reference exceeded the group's own order", m.Name)
		}
		if err := samePerms(g.Elements, want); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		for i, e := range g.Elements {
			if j, ok := g.Index(e); !ok || j != i {
				t.Fatalf("%s: Index(element %d) = %d, %v", m.Name, i, j, ok)
			}
		}
		// A limit one short of the order must fail on both sides.
		if _, err := Generate(m.Name, g.gens, g.Order()-1); err == nil {
			t.Fatalf("%s: Generate accepted limit %d below order %d", m.Name, g.Order()-1, g.Order())
		}
	}
}

func TestIndexRejectsNonElements(t *testing.T) {
	g, err := Alt(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.Contains(FromCycles(5, [][]int{{0, 1}})) {
		t.Fatal("A5 contains a transposition")
	}
	if g.Contains(Identity(6)) {
		t.Fatal("A5 contains a degree-6 permutation")
	}
}
