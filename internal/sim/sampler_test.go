package sim

import (
	"math"
	"testing"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/fpn"
)

// A reused BlockSampler must be bit-identical to a fresh one: same
// circuit, block range and seed give the same detector words, no matter
// what ran on the buffers before.
func TestSamplerReuseReproducible(t *testing.T) {
	code := steane(t)
	c := memoryCircuitWithNoise(t, code, fpn.Options{UseFlags: true}, css.Z, 3, 0.01)
	fresh := NewBlockSampler(c, 1)
	first := snapshot(fresh.Run(0, 64, 5))

	reused := NewBlockSampler(c, 1)
	reused.Run(0, 64, 99) // dirty the buffers with a different stream
	reused.Run(0, 17, 3)  // and with a partial block
	again := snapshot(reused.Run(0, 64, 5))

	if len(first) != len(again) {
		t.Fatalf("detector row count changed: %d vs %d", len(first), len(again))
	}
	for d := range first {
		for w := range first[d] {
			if first[d][w] != again[d][w] {
				t.Fatalf("detector %d word %d differs after reuse", d, w)
			}
		}
	}
}

// Partial blocks must confine noise to the active lanes.
func TestSamplerPartialBlockLanes(t *testing.T) {
	c := &circuit.Circuit{NumQubits: 1}
	c.AddOp(circuit.Op{Kind: circuit.OpM, Qubits: []int{0}, FlipProb: 1})
	c.Detectors = append(c.Detectors, circuit.Detector{Meas: []int{0}})
	res := NewBlockSampler(c, 1).Run(0, 20, 1)
	if res.Shots != 20 {
		t.Fatalf("Shots = %d, want 20", res.Shots)
	}
	for s := 0; s < 20; s++ {
		if !res.DetectorBit(0, s) {
			t.Fatalf("lane %d: FlipProb=1 did not flip", s)
		}
	}
	if res.Detectors[0][0]>>20 != 0 {
		t.Fatalf("noise leaked beyond the 20 active lanes: %#x", res.Detectors[0][0])
	}
}

// The block-mode contract: a block's outcome must not depend on how
// blocks are grouped into passes. Sixteen blocks sampled in one pass,
// in four 4-block passes, and in sixteen single-block passes must agree
// word for word.
func TestBlockSamplerGroupingInvariance(t *testing.T) {
	code := steane(t)
	c := memoryCircuitWithNoise(t, code, fpn.Options{UseFlags: true}, css.Z, 3, 0.01)
	const base = int64(42)
	const blocks = 16

	one := NewBlockSampler(c, blocks)
	whole := snapshot(one.Run(0, blocks*64, base))

	quarters := NewBlockSampler(c, 4)
	singles := NewBlockSampler(c, 1)
	for g := 0; g < 4; g++ {
		part := quarters.Run(g*4, 4*64, base)
		for d := range whole {
			for w := 0; w < 4; w++ {
				if part.Detectors[d][w] != whole[d][g*4+w] {
					t.Fatalf("4-block pass %d: detector %d word %d differs from the 16-block pass", g, d, w)
				}
			}
		}
	}
	for b := 0; b < blocks; b++ {
		single := singles.Run(b, 64, base)
		for d := range whole {
			if single.Detectors[d][0] != whole[d][b] {
				t.Fatalf("single-block pass %d: detector %d differs from the 16-block pass", b, d)
			}
		}
	}
}

// A partial trailing block must behave the same batched or alone.
func TestBlockSamplerPartialTail(t *testing.T) {
	code := steane(t)
	c := memoryCircuitWithNoise(t, code, fpn.Options{}, css.Z, 2, 0.02)
	const base = int64(7)
	batched := snapshot(NewBlockSampler(c, 3).Run(0, 2*64+20, base))
	tail := NewBlockSampler(c, 1).Run(2, 20, base)
	if tail.Shots != 20 {
		t.Fatalf("tail Shots = %d, want 20", tail.Shots)
	}
	for d := range batched {
		if tail.Detectors[d][0] != batched[d][2] {
			t.Fatalf("detector %d: partial tail differs batched vs alone", d)
		}
	}
}

func snapshot(r *Result) [][]uint64 {
	out := make([][]uint64, len(r.Detectors))
	for d := range r.Detectors {
		out[d] = append([]uint64(nil), r.Detectors[d]...)
	}
	return out
}

func TestBlockSamplerValidateBoundaries(t *testing.T) {
	code := steane(t)
	c := memoryCircuitWithNoise(t, code, fpn.Options{}, css.Z, 2, 0.01)
	s := NewBlockSampler(c, 2) // capacity 128 shots
	for _, tc := range []struct {
		name       string
		firstBlock int
		shots      int
		ok         bool
	}{
		{"zero-shots", 0, 0, false},
		{"negative-shots", 0, -64, false},
		{"one-shot", 0, 1, true},
		{"max-shots", 0, 128, true},
		{"max-plus-one", 0, 129, false},
		{"negative-block", -1, 64, false},
		{"deep-block", 1 << 30, 64, true},
	} {
		err := s.Validate(tc.firstBlock, tc.shots)
		if (err == nil) != tc.ok {
			t.Errorf("BlockSampler.Validate(%s: first=%d shots=%d): err=%v, want ok=%v",
				tc.name, tc.firstBlock, tc.shots, err, tc.ok)
		}
	}
}

// Run must refuse out-of-range counts loudly (panic with the Validate
// error) rather than silently sampling garbage lanes.
func TestSamplerRunPanicsOutOfRange(t *testing.T) {
	code := steane(t)
	c := memoryCircuitWithNoise(t, code, fpn.Options{}, css.Z, 2, 0.01)
	s := NewBlockSampler(c, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Run(0, 65) on a one-block sampler did not panic")
		}
	}()
	s.Run(0, 65, 1)
}

// At a tiny flip probability the geometric skip exceeds every int. The
// sampler must neither panic on a wrapped lane index nor hit a lane.
func TestTinyProbabilityNoHits(t *testing.T) {
	for _, p := range []float64{1e-19, 1e-300, math.SmallestNonzeroFloat64} {
		c := &circuit.Circuit{NumQubits: 1}
		c.AddOp(circuit.Op{Kind: circuit.OpXFlip, Qubits: []int{0}, P: p})
		c.AddOp(circuit.Op{Kind: circuit.OpM, Qubits: []int{0}})
		c.Detectors = append(c.Detectors, circuit.Detector{Meas: []int{0}})
		res := sample(c, 64*64, 1)
		for w, word := range res.Detectors[0][:res.Words] {
			if word != 0 {
				t.Fatalf("p=%g: word %d has hits %#x", p, w, word)
			}
		}
	}
}
