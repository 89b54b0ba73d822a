// BlockRunner decodes arbitrary 64-shot block ranges of one configured
// run through exactly the production simulate→decode→count stack. It is
// the worker-side seam of the distributed sweep fabric
// (internal/fabric): a coordinator hands out (firstBlock, blockCount)
// shard leases and any worker holding the same Config re-derives the
// same per-block logical-error counts, because block RNG streams depend
// only on (circuit, base seed, block index). The counts it returns feed
// a Frontier, which is the same commit/early-stop core a single-machine
// run uses — so a distributed sweep's result is bit-identical by
// construction, not by coincidence.
package experiment

import (
	"context"
	"fmt"

	"github.com/fpn/flagproxy/internal/circuit"
)

// Validate reports whether cfg is a well-formed experiment
// configuration, applying the same checks RunContext would. The
// distributed coordinator calls it to fail fast on a bad sweep point
// before any worker leases a shard.
func (cfg Config) Validate() error { return validate(cfg) }

// BlockRunner evaluates per-block logical-error counts for one
// (pipeline, Config) pair. It is safe for concurrent calls: each call
// borrows a private scratch and owns its sampler.
type BlockRunner struct {
	cfg    Config
	c      *circuit.Circuit
	ladder *Ladder
	total  int
}

// NewBlockRunner builds the p-dependent tail of the pipeline — circuit,
// detector error model, decoder — once, for decoding any block range of
// cfg. It honours Fallback through the engine's lazy fallback pools
// (RescueBlocks). DecodeTimeout, Resume, Workers and ShardShots are
// ignored: shard placement and retry policy belong to the caller (the
// fabric coordinator), and per-block counts are deterministic
// regardless of them.
func (pl *Pipeline) NewBlockRunner(cfg Config) (*BlockRunner, error) {
	cfg, c, dec, mk, err := pl.buildTail(cfg)
	if err != nil {
		return nil, err
	}
	if len(cfg.Fallback) == 0 {
		mk = nil // keeps no factory, so the error model it closes over is freed
	}
	lad := newLadder(cfg, dec, mk)
	lad.timeout = 0
	return &BlockRunner{cfg: cfg, c: c, ladder: lad, total: (cfg.Shots + blockShots - 1) / blockShots}, nil
}

// TotalBlocks reports the run's total 64-shot block count — the block
// index space CountBlocks accepts.
func (r *BlockRunner) TotalBlocks() int { return r.total }

// Config returns the normalized configuration the runner was built for
// (Rounds defaulted, pipeline artifacts attached), whose Fingerprint
// identifies the ledger the counts belong to.
func (r *BlockRunner) Config() Config { return r.cfg }

// CountBlocks samples and decodes blocks [first, first+n) with the
// primary decoder and returns their logical-error counts, one entry per
// block. Any panic below it — decoder, matching, sampler — is converted
// into an error carrying the exact (seed, firstBlock) repro instead of
// unwinding the worker. The context is observed between blocks; a
// cancelled call returns ctx's error with no partial counts.
func (r *BlockRunner) CountBlocks(ctx context.Context, first, n int) ([]int, error) {
	counts, _, err := r.climb(ctx, first, n, false)
	return counts, err
}

// RescueBlocks is CountBlocks on the fallback chain alone, skipping the
// primary; it also returns the kind whose counts they are.
func (r *BlockRunner) RescueBlocks(ctx context.Context, first, n int) ([]int, DecoderKind, error) {
	return r.climb(ctx, first, n, true)
}

// climb counts blocks [first, first+n) on the primary or (rescue) the
// fallback rungs.
func (r *BlockRunner) climb(ctx context.Context, first, n int, rescue bool) ([]int, DecoderKind, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if first < 0 || n <= 0 || first+n > r.total {
		return nil, 0, fmt.Errorf("experiment: CountBlocks(%d, %d) outside the run's %d blocks", first, n, r.total)
	}
	shots := min((first+n)*blockShots, r.cfg.Shots) - first*blockShots
	open := func(p *DecoderPool) *shardRes { return newShardRes(r.c, n, p.Get(), first, shots) }
	try := func(res *shardRes) ([]int, error) {
		return res.count(r.cfg.Seed, func() bool { return ctx.Err() != nil })
	}
	lad, primary := r.ladder, (**shardRes)(nil)
	if !rescue {
		res := open(lad.pools.primary)
		defer res.Release()
		lad, primary = &Ladder{pools: lad.pools}, &res
	}
	out := Climb(lad, primary, open, try)
	switch {
	case out.Verdict.Failed() && out.Fault == nil:
		return nil, 0, fmt.Errorf("experiment: no fallback decoder of %v can be built", r.cfg.Fallback)
	case out.Verdict.Failed():
		return nil, out.Kind, fmt.Errorf("experiment: blocks %d..%d (decoder %s) panicked: %v; repro: seed=%d firstBlock=%d\n%s",
			first, first+n-1, out.Kind, out.Fault.Value, r.cfg.Seed, first, out.Fault.Stack)
	case out.Err != nil:
		// An impossible shard shape is a caller bug, not a panic.
		return nil, out.Kind, fmt.Errorf("experiment: CountBlocks(%d, %d): %w", first, n, out.Err)
	case len(out.Val) < n:
		return nil, out.Kind, ctx.Err()
	}
	return out.Val, out.Kind, nil
}
