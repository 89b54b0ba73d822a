package experiment

import (
	"context"
	"testing"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/decoder"
	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/noise"
	"github.com/fpn/flagproxy/internal/sim"
)

const benchShots = 2048

// benchWorkload prebuilds everything p-dependent once — circuit,
// detector error model, decoder — so the benchmarks below time only the
// simulate→decode→count engine, the part that dominates cluster-scale
// shot counts.
func benchWorkload(b testing.TB) (*circuit.Circuit, Decoder) {
	b.Helper()
	code := hyper55(b)
	pl, err := NewPipeline(code, engineArch)
	if err != nil {
		b.Fatal(err)
	}
	nm := &noise.Model{P: 1e-3}
	c, err := circuit.BuildMemory(circuit.MemorySpec{Plan: pl.Plan, Basis: css.Z, Rounds: 3, Noise: nm})
	if err != nil {
		b.Fatal(err)
	}
	model, err := dem.Extract(c)
	if err != nil {
		b.Fatal(err)
	}
	dec, err := newDecoder(FlaggedMWPM, model, css.Z, nm.MeasFlip())
	if err != nil {
		b.Fatal(err)
	}
	return c, dec
}

// benchmarkEngine measures the sharded engine on the [[30,8,3,3]]
// memory-Z workload at p = 1e-3. Compare the workers=1/2/4 variants
// against BenchmarkEngineLegacySingleBatch (the seed's architecture)
// for the multi-core scaling claim; run with -benchmem to see the
// bounded per-shard memory against the legacy all-shots-at-once batch.
func benchmarkEngine(b *testing.B, workers int) {
	c, dec := benchWorkload(b)
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
	c, dec := benchWorkload(b)
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
