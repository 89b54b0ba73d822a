package experiment

import (
	"context"
	"testing"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/decoder"
	"github.com/fpn/flagproxy/internal/sim"
)

const benchShots = 2048

// engineWorkload builds the raw engine inputs once — the [[30,8,3,3]]
// memory-Z circuit at p and the production decoder, lifted onto
// decoder.Batch by buildTail — so the benchmarks below time only the
// simulate→decode→count engine, the part that dominates cluster-scale
// shot counts, and white-box runEngine tests can wrap the decoder in
// faulty ones.
func engineWorkload(t testing.TB, p float64) (*circuit.Circuit, Decoder) {
	t.Helper()
	pl, err := NewPipeline(hyper55(t), engineArch)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := pl.buildTail(Config{Basis: css.Z, Rounds: 3, P: p, Shots: 1, Decoder: FlaggedMWPM})
	if err != nil {
		t.Fatal(err)
	}
	return tl.c, tl.dec
}

// benchmarkEngine measures the sharded engine on the [[30,8,3,3]]
// memory-Z workload at p = 1e-3. Compare the workers=1/2/4 variants
// against BenchmarkEngineLegacySingleBatch (the seed's architecture)
// for the multi-core scaling claim; run with -benchmem to see the
// bounded per-shard memory against the legacy all-shots-at-once batch.
func benchmarkEngine(b *testing.B, workers int) {
	c, dec := engineWorkload(b, 1e-3)
	cfg := Config{
		Shots: benchShots, Seed: 1, Workers: workers,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runEngine(context.Background(), newBlockRunner(cfg, c, dec, nil))
	}
	b.ReportMetric(float64(benchShots)*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
}

func BenchmarkEngineWorkers1(b *testing.B) { benchmarkEngine(b, 1) }
func BenchmarkEngineWorkers2(b *testing.B) { benchmarkEngine(b, 2) }
func BenchmarkEngineWorkers4(b *testing.B) { benchmarkEngine(b, 4) }

// BenchmarkEngineLegacySingleBatch reproduces the seed's architecture:
// one giant bit-packed sampling pass holding every shot's detector rows
// in memory at once, decoded serially on one goroutine.
func BenchmarkEngineLegacySingleBatch(b *testing.B) {
	c, dec := engineWorkload(b, 1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.NewBlockSampler(c, (benchShots+63)/64).Run(0, benchShots, 1)
		errs := 0
		var lanes decoder.Defects
		for shot := 0; shot < benchShots; shot++ {
			if shot%64 == 0 {
				lanes.Extract(res, shot, min(64, benchShots-shot))
			}
			corr, err := dec.Decode(lanes.Lane(shot % 64))
			if err != nil {
				errs++
				continue
			}
			for o := range c.Observables {
				if corr[o] != res.ObservableBit(o, shot) {
					errs++
					break
				}
			}
		}
		_ = errs
	}
	b.ReportMetric(float64(benchShots)*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
}
