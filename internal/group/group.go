package group

import (
	"fmt"
	"sort"
)

// Group is a finite permutation group enumerated as an explicit element
// list. Element 0 is always the identity.
type Group struct {
	Name     string
	Elements []Perm
	gens     []Perm
	index    *closure // looks elements up by image
}

// Generate enumerates the closure of the generators by breadth-first
// multiplication. It fails if the group exceeds limit elements.
func Generate(name string, gens []Perm, limit int) (*Group, error) {
	if len(gens) == 0 {
		return nil, fmt.Errorf("group: no generators")
	}
	deg := len(gens[0])
	for _, g := range gens {
		if len(g) != deg {
			return nil, fmt.Errorf("group: generator degree mismatch")
		}
	}
	var c closure
	if !c.run(gens, limit) {
		return nil, fmt.Errorf("group %s: exceeded limit %d", name, limit)
	}
	return c.group(name, gens), nil
}

// Order returns the number of group elements.
func (g *Group) Order() int { return len(g.Elements) }

// Index returns the position of p in Elements, if p is an element of g.
func (g *Group) Index(p Perm) (int, bool) {
	if len(p) != g.index.deg {
		return 0, false
	}
	_, i := g.index.find(p, hashImage(p))
	return i, i >= 0
}

// Contains reports whether p is an element of g.
func (g *Group) Contains(p Perm) bool {
	_, ok := g.Index(p)
	return ok
}

// ElementsOfOrder returns all elements with the exact given order.
func (g *Group) ElementsOfOrder(k int) []Perm {
	var out []Perm
	for _, e := range g.Elements {
		if e.Order() == k {
			out = append(out, e)
		}
	}
	return out
}

// OrderHistogram returns sorted (order, count) pairs of element orders.
func (g *Group) OrderHistogram() [][2]int {
	m := map[int]int{}
	for _, e := range g.Elements {
		m[e.Order()]++
	}
	keys := make([]int, 0, len(m))
	//fpnvet:orderless collect-then-sort: the histogram is sorted by order
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([][2]int, len(keys))
	for i, k := range keys {
		out[i] = [2]int{k, m[k]}
	}
	return out
}
