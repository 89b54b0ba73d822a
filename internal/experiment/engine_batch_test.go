package experiment

// Engine-level batch/scalar differential: the batch path must be a
// pure execution strategy. For every decoder family the engine can
// batch, a full engine run — sharded workers, partial tail block, early
// stopping — must commit bit-identical (Shots, Blocks, LogicalErrors)
// whether the pool gets the batch decoder or its bare scalar inner
// decoder, and the batch run must account for every decoded lane in
// its memo counters.

import (
	"testing"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/decoder"
)

// unbatch is a WrapDecoder that hands the pool the bare scratch decoder
// a batch decoder wraps, so every shard takes the per-shot scalar loop.
func unbatch(_ DecoderKind, d Decoder) Decoder {
	if b, ok := d.(*decoder.Batch); ok {
		return b.Inner().(Decoder)
	}
	return d
}

func TestEngineBatchScalarBitIdentity(t *testing.T) {
	code := hyper55(t)
	pl, err := NewPipeline(code, engineArch)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Code: code, Basis: css.Z, P: 2e-3, Shots: 1000, Seed: 7,
		Workers: 4, ShardShots: 256,
	}
	for _, kind := range []DecoderKind{FlaggedMWPM, PlainMWPM, FlaggedUnionFind, BPOSD} {
		cfg := base
		cfg.Decoder = kind
		cfg.WrapDecoder = unbatch
		scalar, err := pl.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if scalar.MemoHits != 0 || scalar.MemoMisses != 0 {
			t.Errorf("%v: scalar run reports memo traffic (%d hits, %d misses)",
				kind, scalar.MemoHits, scalar.MemoMisses)
		}
		cfg.WrapDecoder = nil
		batch, err := pl.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if batch.Shots != scalar.Shots || batch.Blocks != scalar.Blocks ||
			batch.LogicalErrors != scalar.LogicalErrors {
			t.Errorf("%v: batch (shots=%d blocks=%d errs=%d) != scalar (shots=%d blocks=%d errs=%d)",
				kind, batch.Shots, batch.Blocks, batch.LogicalErrors,
				scalar.Shots, scalar.Blocks, scalar.LogicalErrors)
		}
		if kind == BPOSD {
			if batch.MemoHits != 0 || batch.MemoMisses != 0 {
				t.Errorf("bp-osd: reported memo traffic (%d hits, %d misses) but stays scalar by design",
					batch.MemoHits, batch.MemoMisses)
			}
			continue
		}
		// No early stop and no timeouts: every lane is decoded exactly
		// once, counts once as a hit or a miss, and every scratch is
		// released, so the counters cover all lanes exactly.
		if got := batch.MemoHits + batch.MemoMisses; got != int64(base.Shots) {
			t.Errorf("%v: memo counters cover %d lanes, want %d", kind, got, base.Shots)
		}
		if batch.MemoHits == 0 {
			t.Errorf("%v: batch run had zero memo hits; the memo is not engaged", kind)
		}
	}
}

// TestEngineBatchScalarEarlyStop repeats the differential under a
// TargetErrors stop: the committed prefix — evaluated strictly in block
// order — must be identical, so batching cannot move the stop point.
func TestEngineBatchScalarEarlyStop(t *testing.T) {
	code := hyper55(t)
	pl, err := NewPipeline(code, engineArch)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Code: code, Basis: css.Z, P: 5e-3, Shots: 4000, Seed: 13,
		Decoder: FlaggedMWPM, Workers: 4, ShardShots: 128, TargetErrors: 12,
	}
	cfg.WrapDecoder = unbatch
	scalar, err := pl.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !scalar.EarlyStopped {
		t.Fatal("scalar run did not early-stop; the differential would be vacuous")
	}
	cfg.WrapDecoder = nil
	batch, err := pl.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Shots != scalar.Shots || batch.Blocks != scalar.Blocks ||
		batch.LogicalErrors != scalar.LogicalErrors || batch.EarlyStopped != scalar.EarlyStopped {
		t.Errorf("early-stop diverged: batch (shots=%d blocks=%d errs=%d stop=%v) != scalar (shots=%d blocks=%d errs=%d stop=%v)",
			batch.Shots, batch.Blocks, batch.LogicalErrors, batch.EarlyStopped,
			scalar.Shots, scalar.Blocks, scalar.LogicalErrors, scalar.EarlyStopped)
	}
}
