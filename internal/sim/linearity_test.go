package sim

import (
	"math/rand"
	"testing"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/fpn"
)

// Pauli frames are linear: the detector footprint of two injected faults
// is the XOR of their individual footprints. This property underpins the
// whole detector-error-model approach, so we verify it on the real
// [[30,8,3,3]] FPN circuit with random fault pairs.
func TestPropertyFrameLinearity(t *testing.T) {
	code := hyper55(t)
	c := memoryCircuit(t, code, fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}, css.Z, 2, nil)
	rng := rand.New(rand.NewSource(13))

	// Collect candidate injection sites: random Paulis after random ops.
	randFault := func() Injection {
		return Injection{
			OpIndex: rng.Intn(len(c.Ops)),
			Paulis: []Pauli{{
				Qubit: rng.Intn(c.NumQubits),
				X:     rng.Intn(2) == 1,
				Z:     rng.Intn(2) == 1,
			}},
		}
	}
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		fa, fb := randFault(), randFault()
		// Lane 0: fault a; lane 1: fault b; lane 2: both.
		var inj []Injection
		a0, b1 := fa, fb
		a0.Lane, b1.Lane = 0, 1
		a2, b2 := fa, fb
		a2.Lane, b2.Lane = 2, 2
		inj = append(inj, a0, b1, a2, b2)
		res := RunDeterministic(c, 3, inj)
		for d := range c.Detectors {
			want := res.DetectorBit(d, 0) != res.DetectorBit(d, 1)
			if res.DetectorBit(d, 2) != want {
				t.Fatalf("trial %d: detector %d violates linearity", trial, d)
			}
		}
		for o := range c.Observables {
			want := res.ObservableBit(o, 0) != res.ObservableBit(o, 1)
			if res.ObservableBit(o, 2) != want {
				t.Fatalf("trial %d: observable %d violates linearity", trial, o)
			}
		}
	}
}

// Sampling must be reproducible for a fixed seed and differ across
// seeds.
func TestSamplerDeterminism(t *testing.T) {
	code := hyper55(t)
	nmP := 2e-3
	c := memoryCircuitNoisy(t, code, nmP)
	r1 := sample(c, 256, 99)
	r2 := sample(c, 256, 99)
	r3 := sample(c, 256, 100)
	same, diff := true, false
	for d := range c.Detectors {
		for w := range r1.Detectors[d] {
			if r1.Detectors[d][w] != r2.Detectors[d][w] {
				same = false
			}
			if r1.Detectors[d][w] != r3.Detectors[d][w] {
				diff = true
			}
		}
	}
	if !same {
		t.Fatal("same seed produced different samples")
	}
	if !diff {
		t.Fatal("different seeds produced identical samples")
	}
}

func memoryCircuitNoisy(t *testing.T, code *css.Code, p float64) *circuit.Circuit {
	t.Helper()
	return memoryCircuitWithNoise(t, code, fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}, css.Z, 2, p)
}
