package flagproxy

import (
	"testing"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/decoder"
	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/noise"
	"github.com/fpn/flagproxy/internal/schedule"
	"github.com/fpn/flagproxy/internal/sim"
	"github.com/fpn/flagproxy/internal/surface"
)

// streamShots is the length of the decode benchmarks' shot stream:
// long enough that the batch path's memo sees the traffic the engine
// serves rather than a replay that fits in the memo.
const streamShots = 1 << 16

// bposdShots is the stream prefix the BP+OSD benchmarks decode. BP+OSD
// runs this workload at ≈9k shots/s (2-vCPU Xeon VM), so a pass over
// the whole stream takes ≈7 s; the prefix keeps a pass under 0.5 s.
const bposdShots = 4096

// decoderFixture prepares a decoding workload: the [[30,8,3,3]] FPN
// memory circuit at p=1e-3 with pre-sampled shots.
type decoderFixture struct {
	c     *circuit.Circuit
	model *dem.Model
	res   *sim.Result
	shots int
}

// sample draws shots lanes of c from blocks 0, 1, … of a fresh
// BlockSampler seeded with base seed.
func sample(c *circuit.Circuit, shots int, seed int64) *sim.Result {
	return sim.NewBlockSampler(c, (shots+63)/64).Run(0, shots, seed)
}

// fpnCircuit builds the [[30,8,3,3]] FPN memory-Z circuit at p=1e-3,
// three rounds: the workload behind newDecoderFixture, for benchmarks
// that need the circuit alone.
func fpnCircuit(b *testing.B) *circuit.Circuit {
	b.Helper()
	return memoryCircuit(b, catalogCode(b, "surface", 30), 3)
}

// rotatedD7Circuit builds the rotated d=7 surface code's FPN memory-Z
// circuit at p=1e-3 over seven rounds: the circuit decoded serves in the
// planar-d7 benchmark workload.
func rotatedD7Circuit(b *testing.B) *circuit.Circuit {
	b.Helper()
	l, err := surface.Rotated(7)
	if err != nil {
		b.Fatal(err)
	}
	return memoryCircuit(b, l.Code, 7)
}

// memoryCircuit builds code's FPN (fpnArch, greedy schedule) memory-Z
// circuit at p=1e-3.
func memoryCircuit(b *testing.B, code *css.Code, rounds int) *circuit.Circuit {
	b.Helper()
	net, err := fpn.Build(code, fpnArch)
	if err != nil {
		b.Fatal(err)
	}
	s, err := schedule.Greedy(net)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := schedule.BuildRoundPlan(s)
	if err != nil {
		b.Fatal(err)
	}
	nm := &noise.Model{P: 1e-3}
	c, err := circuit.BuildMemory(circuit.MemorySpec{Plan: plan, Basis: css.Z, Rounds: rounds, Noise: nm})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func newDecoderFixture(b *testing.B) *decoderFixture {
	b.Helper()
	c := fpnCircuit(b)
	model, err := dem.Extract(c)
	if err != nil {
		b.Fatal(err)
	}
	return &decoderFixture{c: c, model: model, res: sample(c, streamShots, 42), shots: streamShots}
}

func (f *decoderFixture) decodeAll(b *testing.B, dec interface {
	Decode([]int32) ([]bool, error)
}) float64 {
	b.Helper()
	errs := 0
	var lanes decoder.Defects
	for shot := 0; shot < f.shots; shot++ {
		if shot%64 == 0 {
			lanes.Extract(f.res, shot, min(64, f.shots-shot))
		}
		corr, err := dec.Decode(lanes.Lane(shot % 64))
		if err != nil {
			errs++
			continue
		}
		for o := range f.c.Observables {
			if corr[o] != f.res.ObservableBit(o, shot) {
				errs++
				break
			}
		}
	}
	return float64(errs) / float64(f.shots)
}

// BenchmarkDecoderMWPMThroughput measures the flagged MWPM decoder's
// per-shot decoding cost on realistic syndromes.
func BenchmarkDecoderMWPMThroughput(b *testing.B) {
	f := newDecoderFixture(b)
	dec, err := decoder.NewMWPM(f.model, css.Z, 1e-3, true)
	if err != nil {
		b.Fatal(err)
	}
	var ber float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ber = f.decodeAll(b, dec)
	}
	b.ReportMetric(float64(f.shots)*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
	b.ReportMetric(ber, "BER")
}

// BenchmarkDecoderUnionFindThroughput measures the flag-aware union-find
// decoder (the fast approximate extension) on the same workload.
func BenchmarkDecoderUnionFindThroughput(b *testing.B) {
	f := newDecoderFixture(b)
	dec, err := decoder.NewUnionFind(f.model, css.Z, 1e-3, true)
	if err != nil {
		b.Fatal(err)
	}
	var ber float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ber = f.decodeAll(b, dec)
	}
	b.ReportMetric(float64(f.shots)*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
	b.ReportMetric(ber, "BER")
}

// BenchmarkDEMExtraction measures detector-error-model extraction, the
// one-off cost per experiment, on the [[30,8,3,3]] FPN circuit and on
// the rotated d=7 FPN circuit.
func BenchmarkDEMExtraction(b *testing.B) {
	for _, bc := range []struct {
		name string
		c    func(*testing.B) *circuit.Circuit
	}{
		{"hyper30-fpn", fpnCircuit},
		{"rotated-d7-fpn", rotatedD7Circuit},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := bc.c(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dem.Extract(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecoderBuild measures the flagged MWPM decoder's
// construction from the rotated d=7 FPN error model: projection,
// hyperedge decomposition, equivalence classes and the matching graph.
func BenchmarkDecoderBuild(b *testing.B) {
	model, err := dem.Extract(rotatedD7Circuit(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decoder.NewMWPM(model, css.Z, 1e-3, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameSampler measures the bit-packed Pauli-frame sampler the
// way the engine drives it: one reused 64-block BlockSampler, base seed i.
func BenchmarkFrameSampler(b *testing.B) {
	smp := sim.NewBlockSampler(fpnCircuit(b), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smp.Run(0, 4096, int64(i))
	}
	b.ReportMetric(4096*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
}

// BenchmarkDecoderBPOSDThroughput measures the BP+OSD extension decoder
// on the same workload as the matching benchmarks, over the stream's
// first bposdShots shots.
func BenchmarkDecoderBPOSDThroughput(b *testing.B) {
	f := newDecoderFixture(b)
	f.shots = bposdShots
	dec, err := decoder.NewBPOSD(f.model, css.Z, 30)
	if err != nil {
		b.Fatal(err)
	}
	var ber float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ber = f.decodeAll(b, dec)
	}
	b.ReportMetric(float64(f.shots)*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
	b.ReportMetric(ber, "BER")
}

// planarFixture prepares the rotated d=5 surface-code workload under the
// canonical Tomita-Svore schedule (the standard MWPM benchmark point).
func planarFixture(b *testing.B) *decoderFixture {
	b.Helper()
	l, err := surface.Rotated(5)
	if err != nil {
		b.Fatal(err)
	}
	s, _, err := schedule.CanonicalRotated(l)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := schedule.BuildRoundPlan(s)
	if err != nil {
		b.Fatal(err)
	}
	nm := &noise.Model{P: 1e-3}
	c, err := circuit.BuildMemory(circuit.MemorySpec{Plan: plan, Basis: css.Z, Rounds: 5, Noise: nm})
	if err != nil {
		b.Fatal(err)
	}
	model, err := dem.Extract(c)
	if err != nil {
		b.Fatal(err)
	}
	return &decoderFixture{c: c, model: model, res: sample(c, streamShots, 42), shots: streamShots}
}

// benchDecodeShots measures the per-shot decode cost (and allocations)
// of one decoder on pre-sampled realistic shots, cycling the shot set.
// Each timed shot includes its share of the block's defect extraction,
// as in the engine's scalar loop.
func benchDecodeShots(b *testing.B, f *decoderFixture, dec interface {
	Decode([]int32) ([]bool, error)
}) {
	b.Helper()
	sc := decoder.NewScratch()
	sd, scratched := dec.(decoder.ScratchDecoder)
	var lanes decoder.Defects
	decode := func(shot int) error {
		if shot%64 == 0 {
			lanes.Extract(f.res, shot, min(64, f.shots-shot))
		}
		var err error
		if scratched {
			_, err = sd.DecodeWith(sc, lanes.Lane(shot%64))
		} else {
			_, err = dec.Decode(lanes.Lane(shot % 64))
		}
		return err
	}
	// Warm the shortest-path-tree cache and size the scratch arenas so
	// the timed region is the steady state.
	for shot := 0; shot < f.shots; shot++ {
		if err := decode(shot); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	shot := 0
	for i := 0; i < b.N; i++ {
		if err := decode(shot); err != nil {
			b.Fatal(err)
		}
		shot++
		if shot == f.shots {
			shot = 0
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "shots/s")
}

// benchDecodeBatch measures the 64-shot batch path on the same
// pre-sampled shots: one timed iteration decodes one block through
// decoder.Batch (syndrome memo, scalar decode on cold keys), cycling
// the block set. Reported shots/s counts lanes, so the number is
// directly comparable to benchDecodeShots. The memo
// metrics come from the untimed first pass over the stream from a fresh
// scratch: lanes/decode is lanes per inner decode, which depends only
// on the stream and the memo policy, never on the machine.
func benchDecodeBatch(b *testing.B, f *decoderFixture, dec decoder.ScratchDecoder) {
	b.Helper()
	bat := decoder.NewBatch(dec)
	sc := decoder.NewScratch()
	blocks := (f.shots + 63) / 64
	// Warm the decoder caches, the scratch arenas and the syndrome memo
	// so the timed region is the steady state the engine runs in.
	for w := 0; w < blocks; w++ {
		first := w * 64
		n := f.shots - first
		if n > 64 {
			n = 64
		}
		if _, err := bat.DecodeBatch(f.res, first, n, sc); err != nil {
			b.Fatal(err)
		}
	}
	hits, misses := sc.TakeMemoStats()
	b.ReportAllocs()
	b.ResetTimer()
	lanes := 0
	w := 0
	for i := 0; i < b.N; i++ {
		first := w * 64
		n := f.shots - first
		if n > 64 {
			n = 64
		}
		if _, err := bat.DecodeBatch(f.res, first, n, sc); err != nil {
			b.Fatal(err)
		}
		lanes += n
		w++
		if w == blocks {
			w = 0
		}
	}
	b.ReportMetric(float64(lanes)/b.Elapsed().Seconds(), "shots/s")
	b.ReportMetric(float64(hits)/float64(hits+misses), "memo-hit-rate")
	b.ReportMetric(float64(hits+misses)/float64(misses), "lanes/decode")
}

// BenchmarkDecodeMWPMPlanarD5 is the acceptance benchmark: plain MWPM on
// the rotated d=5 surface code, per-shot cost and steady-state allocs.
func BenchmarkDecodeMWPMPlanarD5(b *testing.B) {
	f := planarFixture(b)
	dec, err := decoder.NewMWPM(f.model, css.Z, 1e-3, false)
	if err != nil {
		b.Fatal(err)
	}
	benchDecodeShots(b, f, dec)
}

// BenchmarkDecodeBatchMWPMPlanarD5 is the batch counterpart of the
// acceptance benchmark: the same plain-MWPM planar d=5 workload through
// the 64-shot batch path. Its lanes/decode metric is the number the
// decode-perf CI gate tracks.
func BenchmarkDecodeBatchMWPMPlanarD5(b *testing.B) {
	f := planarFixture(b)
	dec, err := decoder.NewMWPM(f.model, css.Z, 1e-3, false)
	if err != nil {
		b.Fatal(err)
	}
	benchDecodeBatch(b, f, dec)
}

// BenchmarkDecodeBatchMWPM measures the flagged MWPM decoder through the
// batch path on the [[30,8,3,3]] FPN workload.
func BenchmarkDecodeBatchMWPM(b *testing.B) {
	f := newDecoderFixture(b)
	dec, err := decoder.NewMWPM(f.model, css.Z, 1e-3, true)
	if err != nil {
		b.Fatal(err)
	}
	benchDecodeBatch(b, f, dec)
}

// BenchmarkDecodeBatchUnionFind measures the union-find decoder through
// the batch path on the [[30,8,3,3]] FPN workload.
func BenchmarkDecodeBatchUnionFind(b *testing.B) {
	f := newDecoderFixture(b)
	dec, err := decoder.NewUnionFind(f.model, css.Z, 1e-3, true)
	if err != nil {
		b.Fatal(err)
	}
	benchDecodeBatch(b, f, dec)
}

// BenchmarkDecodeMWPM measures the flagged MWPM decoder per shot on the
// [[30,8,3,3]] FPN workload.
func BenchmarkDecodeMWPM(b *testing.B) {
	f := newDecoderFixture(b)
	dec, err := decoder.NewMWPM(f.model, css.Z, 1e-3, true)
	if err != nil {
		b.Fatal(err)
	}
	benchDecodeShots(b, f, dec)
}

// BenchmarkDecodeRestriction measures the flagged Restriction decoder
// per shot on the {4,6} color-code FPN workload.
func BenchmarkDecodeRestriction(b *testing.B) {
	code := catalogCode(b, "color", 48)
	net, err := fpn.Build(code, fpnArch)
	if err != nil {
		b.Fatal(err)
	}
	s, err := schedule.Greedy(net)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := schedule.BuildRoundPlan(s)
	if err != nil {
		b.Fatal(err)
	}
	nm := &noise.Model{P: 1e-3}
	c, err := circuit.BuildMemory(circuit.MemorySpec{Plan: plan, Basis: css.Z, Rounds: 3, Noise: nm})
	if err != nil {
		b.Fatal(err)
	}
	model, err := dem.Extract(c)
	if err != nil {
		b.Fatal(err)
	}
	f := &decoderFixture{c: c, model: model, res: sample(c, 512, 42), shots: 512}
	dec, err := decoder.NewRestriction(model, css.Z, 1e-3, true, true)
	if err != nil {
		b.Fatal(err)
	}
	benchDecodeShots(b, f, dec)
}

// BenchmarkDecodeUnionFind measures the union-find decoder per shot on
// the [[30,8,3,3]] FPN workload.
func BenchmarkDecodeUnionFind(b *testing.B) {
	f := newDecoderFixture(b)
	dec, err := decoder.NewUnionFind(f.model, css.Z, 1e-3, true)
	if err != nil {
		b.Fatal(err)
	}
	benchDecodeShots(b, f, dec)
}

// BenchmarkDecodeBPOSD measures the BP+OSD decoder per shot on the
// [[30,8,3,3]] FPN workload, cycling the stream's first bposdShots
// shots.
func BenchmarkDecodeBPOSD(b *testing.B) {
	f := newDecoderFixture(b)
	f.shots = bposdShots
	dec, err := decoder.NewBPOSD(f.model, css.Z, 30)
	if err != nil {
		b.Fatal(err)
	}
	benchDecodeShots(b, f, dec)
}
