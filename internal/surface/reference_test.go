package surface

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/fpn/flagproxy/internal/gf2"
	"github.com/fpn/flagproxy/internal/group"
	"github.com/fpn/flagproxy/internal/tiling"
)

// NaiveShortestNontrivialCycle is the reference ShortestNontrivialCycle
// must agree with: for every basis functional λ of ker(H_Z) and every
// vertex v, the shortest λ-odd closed walk at v is the shortest path
// between the two lifts of v in the λ-signed double cover of the graph.
func NaiveShortestNontrivialCycle(m *tiling.Map) int {
	nE := m.E()
	hz := gf2.MatrixFromSupports(m.F(), nE, m.FaceEdges())
	lambdas := gf2.NullspaceBasis(hz)
	nV := m.V()
	type arc struct{ to, edge int }
	adj := make([][]arc, nV)
	for e, ep := range m.EdgeEndpoints() {
		adj[ep[0]] = append(adj[ep[0]], arc{ep[1], e})
		adj[ep[1]] = append(adj[ep[1]], arc{ep[0], e})
	}
	best := nE + 1
	dist := make([]int, 2*nV)
	queue := make([]int, 0, 2*nV)
	for _, lambda := range lambdas {
		odd := make([]bool, nE)
		for _, e := range lambda.Support() {
			odd[e] = true
		}
		for v := 0; v < nV; v++ {
			for i := range dist {
				dist[i] = -1
			}
			dist[2*v] = 0
			queue = append(queue[:0], 2*v)
			for qi := 0; qi < len(queue); qi++ {
				cur := queue[qi]
				u, sheet := cur/2, cur%2
				if dist[cur] >= best {
					continue
				}
				for _, a := range adj[u] {
					ns := sheet
					if odd[a.edge] {
						ns ^= 1
					}
					nxt := 2*a.to + ns
					if dist[nxt] < 0 {
						dist[nxt] = dist[cur] + 1
						queue = append(queue, nxt)
					}
				}
			}
			if d := dist[2*v+1]; d > 0 && d < best {
				best = d
			}
		}
	}
	if best > nE {
		return 0
	}
	return best
}

// checkCycleMatchesNaive compares the two distance computations on a map
// and on its dual.
func checkCycleMatchesNaive(t *testing.T, name string, m *tiling.Map) {
	t.Helper()
	for _, side := range []struct {
		label string
		m     *tiling.Map
	}{{"map", m}, {"dual", m.Dual()}} {
		got, want := ShortestNontrivialCycle(side.m), NaiveShortestNontrivialCycle(side.m)
		if got != want {
			t.Fatalf("%s %s (V=%d E=%d F=%d): distance %d, reference %d",
				name, side.label, side.m.V(), side.m.E(), side.m.F(), got, want)
		}
	}
}

func TestShortestNontrivialCycleMatchesNaiveSmallMaps(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5} {
		checkCycleMatchesNaive(t, "torus", torusMap(t, n))
	}
	g, err := group.Alt(5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, p := range group.FindRSPairs(g, 5, 5, rng, 3000, 5, 60) {
		m, err := tiling.FromGroupPair(p)
		if err != nil {
			t.Fatal(err)
		}
		checkCycleMatchesNaive(t, "A5", m)
	}
	// A sphere (one edge between two vertices, one face) has no
	// non-trivial cycle on either side.
	sphere, err := tiling.New([]int{0, 1}, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := ShortestNontrivialCycle(sphere); got != 0 {
		t.Fatalf("genus-0 map: distance %d, want 0", got)
	}
	checkCycleMatchesNaive(t, "sphere", sphere)
}

// fuzzGroups are the menu groups small enough for the reference to stay
// fast on every pair they contain.
var fuzzGroups = sync.OnceValue(func() []*group.Group {
	var out []*group.Group
	for _, m := range group.Menu() {
		g, err := m.Build()
		if err == nil && g.Order() <= 200 {
			out = append(out, g)
		}
	}
	return out
})

// FuzzShortestNontrivialCycle builds the regular map of an arbitrary
// element pair of a small menu group — degenerate maps with loops and
// multi-edges included — and compares the fundamental-cycle distance
// with the double-cover reference on the map and its dual.
func FuzzShortestNontrivialCycle(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0})
	f.Add([]byte{11, 0, 7, 0, 3})
	f.Add([]byte{3, 0, 5, 0, 2})
	f.Add([]byte{6, 1, 9, 0, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		groups := fuzzGroups()
		g := groups[int(data[0])%len(groups)]
		x := g.Elements[(int(data[1])<<8|int(data[2]))%g.Order()]
		ys := g.ElementsOfOrder(2)
		if len(ys) == 0 {
			return
		}
		y := ys[(int(data[3])<<8|int(data[4]))%len(ys)]
		sub, err := group.Generate(g.Name+"-sub", []group.Perm{x, y}, g.Order()+1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := tiling.FromGroupPair(group.RSPair{X: x, Y: y, Sub: sub})
		if err != nil {
			t.Fatal(err)
		}
		checkCycleMatchesNaive(t, g.Name, m)
	})
}
