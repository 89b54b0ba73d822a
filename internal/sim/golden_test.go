package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/noise"
	"github.com/fpn/flagproxy/internal/schedule"
	"github.com/fpn/flagproxy/internal/surface"
)

// updateGolden rewrites testdata/blocksampler.golden from the current
// implementation:
//
//	go test ./internal/sim -run TestBlockSamplerGolden -update
//
// Only do this deliberately: every checkpoint and every published
// result depends on these bits, so a drift is a change to results.
var updateGolden = flag.Bool("update", false, "rewrite testdata/blocksampler.golden")

// rotatedCanonical builds the rotated distance-d memory circuit under
// the canonical (hook-free) schedule, d rounds.
func rotatedCanonical(t *testing.T, d int, basis css.Basis, p float64) *circuit.Circuit {
	t.Helper()
	l, err := surface.Rotated(d)
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
	c, err := circuit.BuildMemory(circuit.MemorySpec{Plan: plan, Basis: basis, Rounds: d, Noise: &noise.Model{P: p}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// goldenRange is one BlockSampler.Run call of the golden sequence.
type goldenRange struct {
	name              string
	firstBlock, shots int
}

// goldenRanges run in this order on one 8-block sampler, so every range
// after the first reuses buffers a longer run dirtied.
var goldenRanges = []goldenRange{
	{"full", 0, 8 * 64},
	{"tail", 3, 5*64 + 17},
	{"lane", 7, 1},
	{"deep", 1 << 30, 2 * 64},
	{"shrink", 1, 100},
}

// resultDigest is a SHA-256 prefix of r's detector then observable rows,
// each word up to r.Words little-endian.
func resultDigest(r *Result) string {
	h := sha256.New()
	var b [8]byte
	for _, rows := range [][][]uint64{r.Detectors, r.Observables} {
		for _, row := range rows {
			for _, w := range row[:r.Words] {
				binary.LittleEndian.PutUint64(b[:], w)
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// TestBlockSamplerGolden pins BlockSampler's output bits per (circuit,
// base seed, block range). Any change to the noise channels' draw
// order, the per-block seeding or the tail masking shows up here as a
// golden-file diff.
func TestBlockSamplerGolden(t *testing.T) {
	type circ struct {
		name string
		c    func(p float64) *circuit.Circuit
	}
	hyper := hyper55(t)
	fpnOpt := fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}
	circs := []circ{
		{"steane-flags-Z", func(p float64) *circuit.Circuit {
			return memoryCircuitWithNoise(t, steane(t), fpn.Options{UseFlags: true}, css.Z, 3, p)
		}},
		{"hysc30-fpn-Z", func(p float64) *circuit.Circuit {
			return memoryCircuitWithNoise(t, hyper, fpnOpt, css.Z, 3, p)
		}},
		{"hysc30-fpn-X", func(p float64) *circuit.Circuit {
			return memoryCircuitWithNoise(t, hyper, fpnOpt, css.X, 3, p)
		}},
		{"rotated3-canonical-Z", func(p float64) *circuit.Circuit { return rotatedCanonical(t, 3, css.Z, p) }},
		{"rotated5-canonical-Z", func(p float64) *circuit.Circuit { return rotatedCanonical(t, 5, css.Z, p) }},
	}
	var buf strings.Builder
	for _, cc := range circs {
		for _, p := range []float64{1e-3, 1e-2} {
			c := cc.c(p)
			for _, seed := range []int64{0, -7, 42, 1<<40 + 3} {
				s := NewBlockSampler(c, 8)
				for _, r := range goldenRanges {
					res := s.Run(r.firstBlock, r.shots, seed)
					fmt.Fprintf(&buf, "%s p=%g seed=%d %s(%d+%d) %s\n",
						cc.name, p, seed, r.name, r.firstBlock, r.shots, resultDigest(res))
				}
			}
		}
	}
	got := buf.String()

	path := filepath.Join("testdata", "blocksampler.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden digests (regenerate with -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("BlockSampler output drifted from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("BlockSampler output drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
