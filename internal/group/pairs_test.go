package group_test

import (
	"math/rand"
	"testing"

	"github.com/fpn/flagproxy/internal/catalog"
	"github.com/fpn/flagproxy/internal/group"
	"github.com/fpn/flagproxy/internal/seedmix"
)

// pairSearch is one subfamily's call pattern in the catalogue: the
// rotation orders asked of FindRSPairs, the subgroup bound and the seed
// of the rng that the catalogue threads through the menu.
type pairSearch struct {
	name         string
	s, r, maxSub int
	seed         int64
}

func catalogueSearches() []pairSearch {
	opt := catalog.DefaultOptions()
	var out []pairSearch
	for _, rs := range catalog.SurfaceSubfamilies {
		maxN := opt.MaxN
		if rs == [2]int{4, 5} {
			maxN = 660 // Standard's {4,5} bound
		}
		out = append(out, pairSearch{"surface", rs[1], rs[0], 2 * maxN, opt.Seed})
	}
	colorSeed := seedmix.Derive(opt.Seed, seedmix.String("color-codes"))
	for _, rs := range catalog.ColorSubfamilies {
		maxN := opt.MaxN
		if rs == [2]int{4, 10} {
			maxN = 720 // Standard's {4,10} bound
		}
		out = append(out, pairSearch{"color", 2 * rs[0], rs[1] / 2, maxN, colorSeed})
	}
	return out
}

// TestFindRSPairsMatchesNaive runs every catalogue subfamily's pair
// search through the whole group menu, threading one rng per subfamily
// as the catalogue does, and checks that the reusable closure keeps the
// same pairs, subgroup orders, element orders and rng draws as the
// string-keyed reference.
func TestFindRSPairsMatchesNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("reference enumeration over the whole menu is slow")
	}
	opt := catalog.DefaultOptions()
	menu := group.Menu()
	groups := make([]*group.Group, len(menu))
	for i, m := range menu {
		g, err := m.Build()
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		groups[i] = g
	}
	for _, ps := range catalogueSearches() {
		fast := rand.New(rand.NewSource(ps.seed))
		ref := rand.New(rand.NewSource(ps.seed))
		kept := 0
		for _, g := range groups {
			got := group.FindRSPairs(g, ps.s, ps.r, fast, opt.Tries, 6, ps.maxSub)
			xs, ys, subs := group.NaiveFindRSPairs(g, ps.s, ps.r, ref, opt.Tries, 6, ps.maxSub)
			if len(got) != len(subs) {
				t.Fatalf("%s (%d,%d) in %s: %d pairs, reference %d", ps.name, ps.s, ps.r, g.Name, len(got), len(subs))
			}
			for i, p := range got {
				if !p.X.Equal(xs[i]) || !p.Y.Equal(ys[i]) {
					t.Fatalf("%s (%d,%d) in %s: pair %d differs", ps.name, ps.s, ps.r, g.Name, i)
				}
				if len(p.Sub.Elements) != len(subs[i]) {
					t.Fatalf("%s (%d,%d) in %s: pair %d order %d, reference %d", ps.name, ps.s, ps.r, g.Name, i, p.Sub.Order(), len(subs[i]))
				}
				for j, e := range p.Sub.Elements {
					if !e.Equal(subs[i][j]) {
						t.Fatalf("%s (%d,%d) in %s: pair %d element %d differs", ps.name, ps.s, ps.r, g.Name, i, j)
					}
				}
			}
			kept += len(got)
		}
		if a, b := fast.Int63(), ref.Int63(); a != b {
			t.Fatalf("%s (%d,%d): rng streams diverged", ps.name, ps.s, ps.r)
		}
		t.Logf("%s (%d,%d): %d pairs over %d groups", ps.name, ps.s, ps.r, kept, len(groups))
	}
}
