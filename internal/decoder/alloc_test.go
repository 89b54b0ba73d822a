package decoder

// Allocation regression gates: after a warm-up pass has built the
// shortest-path-tree caches and sized the scratch arenas, the
// steady-state DecodeWith loop must not touch the heap. CI runs these
// (they are ordinary tests, not benchmarks, so `go test` enforces them
// on every push).

import (
	"fmt"
	"testing"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/color"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/noise"
	"github.com/fpn/flagproxy/internal/schedule"
	"github.com/fpn/flagproxy/internal/sim"
	"github.com/fpn/flagproxy/internal/surface"
)

// planarModel builds the rotated d=5 surface-code memory circuit under
// the canonical schedule (the acceptance benchmark's workload).
func planarModel(t *testing.T, rounds int, p float64) (*dem.Model, *circuit.Circuit) {
	t.Helper()
	l, err := surface.Rotated(5)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := schedule.CanonicalRotated(l)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := schedule.BuildRoundPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	c, err := circuit.BuildMemory(circuit.MemorySpec{Plan: plan, Basis: css.Z, Rounds: rounds, Noise: &noise.Model{P: p}})
	if err != nil {
		t.Fatal(err)
	}
	model, err := dem.Extract(c)
	if err != nil {
		t.Fatal(err)
	}
	return model, c
}

// allocsPerDecode warms the decoder over all shots, then measures
// steady-state allocations per decode for each shot individually and
// returns the per-shot counts.
func allocsPerDecode(t *testing.T, dec ScratchDecoder, res *sim.Result, shots int) []float64 {
	t.Helper()
	lists := make([][]int32, shots)
	for s := range lists {
		lists[s] = bitDefects(res, s)
	}
	sc := NewScratch()
	for _, defects := range lists {
		if _, err := dec.DecodeWith(sc, defects); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]float64, shots)
	for s, defects := range lists {
		out[s] = testing.AllocsPerRun(10, func() {
			if _, err := dec.DecodeWith(sc, defects); err != nil {
				t.Fatal(err)
			}
		})
	}
	return out
}

func maxAllocs(counts []float64) float64 {
	m := 0.0
	for _, c := range counts {
		if c > m {
			m = c
		}
	}
	return m
}

// TestDecodeSteadyStateZeroAlloc gates the matching-family hot paths at
// exactly zero steady-state allocations on realistic sampled shots.
func TestDecodeSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs the full shot sweep")
	}
	const shots = 128
	model, c := planarModel(t, 5, 1e-3)
	res := sample(c, shots, 42)
	plain, err := NewMWPM(model, css.Z, 1e-3, false)
	if err != nil {
		t.Fatal(err)
	}
	if m := maxAllocs(allocsPerDecode(t, plain, res, shots)); m != 0 {
		t.Errorf("plain MWPM (planar d=5): %v allocs/op in steady state, want 0", m)
	}

	fcode := hyper55(t)
	fmodel, fc := buildModel(t, fcode, diffOptions, css.Z, 3, 1e-3)
	fres := sample(fc, shots, 43)
	flagged, err := NewMWPM(fmodel, css.Z, 1e-3, true)
	if err != nil {
		t.Fatal(err)
	}
	if m := maxAllocs(allocsPerDecode(t, flagged, fres, shots)); m != 0 {
		t.Errorf("flagged MWPM ([[30,8,3,3]]): %v allocs/op in steady state, want 0", m)
	}
	ufd, err := NewUnionFind(fmodel, css.Z, 1e-3, true)
	if err != nil {
		t.Fatal(err)
	}
	if m := maxAllocs(allocsPerDecode(t, ufd, fres, shots)); m != 0 {
		t.Errorf("union-find ([[30,8,3,3]]): %v allocs/op in steady state, want 0", m)
	}
	// Restriction is held to zero on the residual repair too: hex-toric-3
	// at p=1e-3 sends most shots through it.
	for _, fx := range restrictionFixtures(t, shots) {
		if m := maxAllocs(allocsPerDecode(t, fx.dec, fx.res, shots)); m != 0 {
			t.Errorf("restriction (%s): %v allocs/op in steady state, want 0", fx.name, m)
		}
		if fx.name == "hex-toric-3" {
			n := repairShots(t, fx.dec, fx.res, shots)
			if n == 0 {
				t.Errorf("restriction (%s): no shot reached the residual repair", fx.name)
			}
			t.Logf("restriction (%s): %d/%d shots reached the residual repair", fx.name, n, shots)
		}
	}

	bposd, err := NewBPOSD(fmodel, css.Z, 30)
	if err != nil {
		t.Fatal(err)
	}
	// BP-converged shots must be allocation-free; the OSD fallback is
	// allowed to allocate, so gate the minimum over shots at 0 and the
	// typical (median) shot too.
	counts := allocsPerDecode(t, bposd, fres, shots)
	zero := 0
	for _, ct := range counts {
		if ct == 0 {
			zero++
		}
	}
	if zero < shots/2 {
		t.Errorf("BP+OSD: only %d/%d shots decode allocation-free", zero, shots)
	}
}

// allocsPerBatch warms the batch path (memo arena, scratch growth, the
// defect-list buffer) over all blocks, then measures steady-state
// allocations per DecodeBatch call for each block individually.
func allocsPerBatch(t *testing.T, b *Batch, res *sim.Result) []float64 {
	t.Helper()
	sc := NewScratch()
	decodeAll := func() {
		for first := 0; first < res.Shots; first += 64 {
			n := res.Shots - first
			if n > 64 {
				n = 64
			}
			if _, err := b.DecodeBatch(res, first, n, sc); err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeAll()
	blocks := (res.Shots + 63) / 64
	out := make([]float64, blocks)
	for w := 0; w < blocks; w++ {
		first := w * 64
		n := res.Shots - first
		if n > 64 {
			n = 64
		}
		out[w] = testing.AllocsPerRun(10, func() {
			if _, err := b.DecodeBatch(res, first, n, sc); err != nil {
				t.Fatal(err)
			}
		})
	}
	return out
}

// TestBatchDecodeSteadyStateZeroAlloc gates the 64-shot batch path the
// same way as the scalar hot path: once the memo arena and scratch are
// warm, decoding a block — memo hits, slot overwrites, scalar fallbacks on
// cold keys included — must not touch the heap for the matching-family
// decoders.
func TestBatchDecodeSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs the full shot sweep")
	}
	const shots = 256
	model, c := planarModel(t, 5, 1e-3)
	res := sample(c, shots, 42)
	plain, err := NewMWPM(model, css.Z, 1e-3, false)
	if err != nil {
		t.Fatal(err)
	}
	if m := maxAllocs(allocsPerBatch(t, NewBatch(plain), res)); m != 0 {
		t.Errorf("batch plain MWPM (planar d=5): %v allocs/op in steady state, want 0", m)
	}
	// The extractor that feeds every decoder reuses its list buffer once
	// it has served the largest block.
	var lanes Defects
	for first := 0; first < shots; first += 64 {
		lanes.Extract(res, first, 64)
	}
	for first := 0; first < shots; first += 64 {
		if a := testing.AllocsPerRun(10, func() { lanes.Extract(res, first, 64) }); a != 0 {
			t.Errorf("Defects.Extract (planar d=5, block %d): %v allocs/op on a warmed buffer, want 0", first/64, a)
		}
	}

	fcode := hyper55(t)
	fmodel, fc := buildModel(t, fcode, diffOptions, css.Z, 3, 1e-3)
	fres := sample(fc, shots, 43)
	flagged, err := NewMWPM(fmodel, css.Z, 1e-3, true)
	if err != nil {
		t.Fatal(err)
	}
	if m := maxAllocs(allocsPerBatch(t, NewBatch(flagged), fres)); m != 0 {
		t.Errorf("batch flagged MWPM ([[30,8,3,3]]): %v allocs/op in steady state, want 0", m)
	}
	ufd, err := NewUnionFind(fmodel, css.Z, 1e-3, true)
	if err != nil {
		t.Fatal(err)
	}
	if m := maxAllocs(allocsPerBatch(t, NewBatch(ufd), fres)); m != 0 {
		t.Errorf("batch union-find ([[30,8,3,3]]): %v allocs/op in steady state, want 0", m)
	}

	for _, fx := range restrictionFixtures(t, shots) {
		if m := maxAllocs(allocsPerBatch(t, NewBatch(fx.dec), fx.res)); m != 0 {
			t.Errorf("batch restriction (%s): %v allocs/op in steady state, want 0", fx.name, m)
		}
	}
}

// restrictionFixture is a flagged Restriction decoder with sampled shots.
type restrictionFixture struct {
	name string
	dec  *Restriction
	res  *sim.Result
}

// restrictionFixtures builds the allocation gate's Restriction workloads:
// the 6.6.6 toric codes hex-toric-2 and hex-toric-3 under the FPN at
// p=1e-3, Z basis, three rounds.
func restrictionFixtures(t *testing.T, shots int) []restrictionFixture {
	t.Helper()
	var out []restrictionFixture
	for _, fx := range []struct {
		size int
		seed int64
	}{{2, 44}, {3, 45}} {
		code, err := color.HexagonalToric(fx.size)
		if err != nil {
			t.Fatal(err)
		}
		model, c := buildModel(t, code, diffOptions, css.Z, 3, 1e-3)
		dec, err := NewRestriction(model, css.Z, 1e-3, true, true)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, restrictionFixture{fmt.Sprintf("hex-toric-%d", fx.size), dec, sample(c, shots, fx.seed)})
	}
	return out
}

// repairShots counts the shots whose decode reached the residual repair:
// a residual is left after the lifting rules.
func repairShots(t *testing.T, dec *Restriction, res *sim.Result, shots int) int {
	t.Helper()
	sc := NewScratch()
	n := 0
	for s := 0; s < shots; s++ {
		if _, err := dec.DecodeWith(sc, bitDefects(res, s)); err != nil {
			t.Fatal(err)
		}
		if sc.rest.nres > 0 {
			n++
		}
	}
	return n
}
