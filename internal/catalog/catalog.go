// Package catalog generates the repository's inventory of hyperbolic
// quantum codes (the stand-in for the paper's GAP-generated Tables IV
// and V): for each {r,s} subfamily it searches the finite-group menu for
// (2,r,s) rotation pairs, builds the associated closed maps, converts
// them to surface or color codes, and computes their parameters.
package catalog

import (
	"fmt"
	"math/rand"

	"github.com/fpn/flagproxy/internal/seedmix"
	"sort"
	"sync"

	"github.com/fpn/flagproxy/internal/color"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/group"
	"github.com/fpn/flagproxy/internal/surface"
	"github.com/fpn/flagproxy/internal/tiling"
)

// Entry is one catalogued code.
type Entry struct {
	Family    string // "surface" or "color"
	Subfamily [2]int // {r, s}
	GroupName string // parent group the rotation pair was found in
	Code      *css.Code
	Map       *tiling.Map // the base map (for color codes, before truncation)
}

// SurfaceSubfamilies lists the paper's hyperbolic surface subfamilies.
var SurfaceSubfamilies = [][2]int{{4, 5}, {4, 6}, {5, 5}, {5, 6}}

// ColorSubfamilies lists the paper's hyperbolic color subfamilies.
var ColorSubfamilies = [][2]int{{4, 6}, {4, 8}, {4, 10}, {5, 8}}

// Options bounds the catalogue search.
type Options struct {
	MaxN     int   // largest code blocklength kept
	MaxCodes int   // per subfamily
	Seed     int64 // RNG seed for the pair search
	Tries    int   // pair-search attempts per parent group
}

// DefaultOptions returns the options used by the reproduction: codes up
// to a few hundred data qubits, a handful per subfamily.
func DefaultOptions() Options {
	return Options{MaxN: 400, MaxCodes: 4, Seed: 12345, Tries: 1200}
}

// SurfaceCodes generates hyperbolic surface codes of the {r,s}
// subfamily: faces are r-gons (weight-r Z checks) and vertices have
// degree s (weight-s X checks).
func SurfaceCodes(r, s int, opt Options) []Entry {
	rng := rand.New(rand.NewSource(opt.Seed))
	var out []Entry
	seenN := map[int]bool{}
	for _, m := range group.Menu() {
		if len(out) >= opt.MaxCodes {
			break
		}
		g, err := m.Build()
		if err != nil {
			continue
		}
		// Darts = |H|, edges = |H|/2 = n.
		pairs := group.FindRSPairs(g, s, r, rng, opt.Tries, 6, 2*opt.MaxN)
		for _, p := range pairs {
			if len(out) >= opt.MaxCodes {
				break
			}
			n := p.Sub.Order() / 2
			if n > opt.MaxN || seenN[n] {
				continue
			}
			mp, err := tiling.FromGroupPair(p)
			if err != nil || !mp.NonDegenerate() || !mp.IsEquivelar(r, s) {
				continue
			}
			code, err := surface.FromMap(mp,
				fmt.Sprintf("hysc-%d_%d-%d", r, s, n),
				fmt.Sprintf("hyperbolic-surface {%d,%d}", r, s))
			if err != nil || code.K == 0 || code.DZ < 3 || code.DX < 3 {
				continue
			}
			seenN[n] = true
			out = append(out, Entry{
				Family:    "surface",
				Subfamily: [2]int{r, s},
				GroupName: g.Name,
				Code:      code,
				Map:       mp,
			})
		}
	}
	sortEntries(out)
	return out
}

// ColorCodes generates hyperbolic color codes of the {r,s} subfamily:
// red plaquettes are 2r-gons and green/blue plaquettes s-gons, from a
// truncated {s/2, 2r} base map.
func ColorCodes(r, s int, opt Options) []Entry {
	if s%2 != 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seedmix.Derive(opt.Seed, seedmix.String("color-codes"))))
	var out []Entry
	seenN := map[int]bool{}
	for _, m := range group.Menu() {
		if len(out) >= opt.MaxCodes {
			break
		}
		g, err := m.Build()
		if err != nil {
			continue
		}
		// Qubits = darts = |H|.
		pairs := group.FindRSPairs(g, 2*r, s/2, rng, opt.Tries, 6, opt.MaxN)
		for _, p := range pairs {
			if len(out) >= opt.MaxCodes {
				break
			}
			n := p.Sub.Order()
			if n > opt.MaxN || seenN[n] {
				continue
			}
			mp, err := tiling.FromGroupPair(p)
			if err != nil || !mp.NonDegenerate() || !mp.IsEquivelar(s/2, 2*r) {
				continue
			}
			code, err := color.FromMap(mp,
				fmt.Sprintf("hycc-%d_%d-%d", r, s, n),
				fmt.Sprintf("hyperbolic-color {%d,%d}", r, s))
			if err != nil || code.K == 0 {
				continue
			}
			code.ComputeDistances()
			if code.DZ < 3 || code.DX < 3 {
				continue
			}
			seenN[n] = true
			out = append(out, Entry{
				Family:    "color",
				Subfamily: [2]int{r, s},
				GroupName: g.Name,
				Code:      code,
				Map:       mp,
			})
		}
	}
	sortEntries(out)
	return out
}

func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool { return es[i].Code.N < es[j].Code.N })
}

var (
	stdOnce sync.Once
	stdCat  []Entry
)

// Standard returns the cached standard catalogue across all subfamilies
// (deterministic: fixed seeds and budgets).
func Standard() []Entry {
	stdOnce.Do(func() {
		opt := DefaultOptions()
		for _, rs := range SurfaceSubfamilies {
			o := opt
			if rs == [2]int{4, 5} {
				// Reach the paper's [[660,68,10,8]] instance: the
				// (2,4,5)-generated PGL(2,11) map has 660 edges.
				o.MaxN = 660
			}
			stdCat = append(stdCat, SurfaceCodes(rs[0], rs[1], o)...)
		}
		for _, rs := range ColorSubfamilies {
			o := opt
			if rs == [2]int{4, 10} {
				// The smallest orientable {4,10} substrate is the
				// PGL(2,9) regular map with 720 darts (the paper's small
				// {4,10} instances live on non-orientable surfaces).
				o.MaxN = 720
			}
			stdCat = append(stdCat, ColorCodes(rs[0], rs[1], o)...)
		}
	})
	return stdCat
}

// BySubfamily filters entries of the given family and subfamily.
func BySubfamily(entries []Entry, family string, rs [2]int) []Entry {
	var out []Entry
	for _, e := range entries {
		if e.Family == family && e.Subfamily == rs {
			out = append(out, e)
		}
	}
	return out
}
