// BlockRunner decodes arbitrary 64-shot block ranges of one configured
// run through exactly the production simulate→decode→count stack. It is
// the one shard path: the local engine's in-process workers count the
// shards of the frontier's plan on it, and the distributed sweep
// fabric's workers (internal/fabric) count the (firstBlock, blockCount)
// shard leases a coordinator hands out from that same plan. Any runner
// holding the same Config re-derives the same per-block logical-error
// counts, because block RNG streams depend only on (circuit, base seed,
// block index). The counts are settled on a Frontier, the one
// commit/early-stop core, and a shard no rung can decode is reported as
// the same ShardError the Frontier keeps — so a distributed sweep's
// result is bit-identical to a local one by construction, not by
// coincidence.
package experiment

import (
	"context"
	"fmt"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/decoder"
	"github.com/fpn/flagproxy/internal/sim"
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
	r := newBlockRunner(cfg, c, dec, mk)
	r.ladder.timeout = 0
	return r, nil
}

// newBlockRunner wraps a built tail; the ladder keeps cfg's decode
// deadline, which the engine honours.
func newBlockRunner(cfg Config, c *circuit.Circuit, dec Decoder, mk func(DecoderKind) (Decoder, error)) *BlockRunner {
	if len(cfg.Fallback) == 0 {
		mk = nil // keeps no factory, so the error model it closes over is freed
	}
	return &BlockRunner{cfg: cfg, c: c, ladder: newLadder(cfg, dec, mk), total: blocksOf(cfg.Shots)}
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
// into a *ShardError carrying the exact (seed, firstBlock) repro
// instead of unwinding the worker; its Shard is 0, since a bare block
// range has no index in a shard plan. The context is observed between
// blocks; a cancelled call returns ctx's error with no partial counts.
func (r *BlockRunner) CountBlocks(ctx context.Context, first, n int) ([]int, error) {
	counts, _, err := r.countRange(ctx, first, n, false)
	return counts, err
}

// RescueBlocks is CountBlocks on the fallback chain alone, skipping the
// primary; it also returns the kind whose counts they are.
func (r *BlockRunner) RescueBlocks(ctx context.Context, first, n int) ([]int, DecoderKind, error) {
	return r.countRange(ctx, first, n, true)
}

// countRange climbs blocks [first, first+n) on the primary alone or
// (rescue) the fallback rungs alone, and turns the outcome into counts
// or a *ShardError.
func (r *BlockRunner) countRange(ctx context.Context, first, n int, rescue bool) ([]int, DecoderKind, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if first < 0 || n <= 0 || first+n > r.total {
		return nil, 0, fmt.Errorf("experiment: CountBlocks(%d, %d) outside the run's %d blocks", first, n, r.total)
	}
	halt := func() bool { return ctx.Err() != nil }
	lad, primary := r.ladder, (**shardRes)(nil)
	if !rescue {
		res := r.open(lad.pools.primary, n, halt)
		defer func() { res.Release() }()
		lad, primary = &Ladder{pools: lad.pools}, &res
	}
	out := r.climb(lad, primary, first, n, halt)
	switch {
	case out.Verdict == VerdictFailed && out.Fault == nil:
		return nil, 0, fmt.Errorf("experiment: no fallback decoder of %v can be built", r.cfg.Fallback)
	case out.Err != nil || out.Verdict.Failed():
		se := NewShardError(r.cfg, 0, first, n, out)
		return nil, out.Kind, &se
	case len(out.Val) < n:
		return nil, out.Kind, ctx.Err()
	}
	return out.Val, out.Kind, nil
}

// climb counts blocks [first, first+n) up lad's rungs. res is the
// caller's primary handle, sized for at least n blocks, or nil to start
// at the first fallback; an attempt abandoned at its deadline keeps it,
// and *res is replaced by a fresh handle of the same size. Every rung
// redoes the primary's exact work (same seed, same firstBlock), so a
// rescued shard is bit-identical to one the fallback decoded from the
// start.
func (r *BlockRunner) climb(lad *Ladder, res **shardRes, first, n int, halt func() bool) Outcome[[]int] {
	shots, size := spanShots(r.cfg.Shots, first, n), n
	if res != nil {
		(*res).first, (*res).shots, size = first, shots, len((*res).counts)
	}
	open := func(p *DecoderPool) *shardRes {
		h := r.open(p, size, halt)
		h.first, h.shots = first, shots
		return h
	}
	return Climb(lad, res, open, (*shardRes).count)
}

// shardRes is all one shard attempt owns — sampler, counts buffer,
// defect lists and decoder handle — so an attempt abandoned at its
// deadline shares no buffer with a live one.
type shardRes struct {
	first, shots int   // first 64-shot block, shots from it on
	seed         int64 // the run's base seed
	halt         func() bool
	c            *circuit.Circuit
	smp          *sim.BlockSampler
	counts       []int
	dec          *PooledDecoder
	res          *sim.Result
	lanes        decoder.Defects // the scalar loop's per-lane decode inputs
}

// open borrows a handle on pool p with its own sampler and counts
// buffer, for shards of up to blocks blocks that poll halt.
func (r *BlockRunner) open(p *DecoderPool, blocks int, halt func() bool) *shardRes {
	return &shardRes{
		seed: r.cfg.Seed, halt: halt, c: r.c, dec: p.Get(),
		smp: sim.NewBlockSampler(r.c, blocks), counts: make([]int, blocks),
	}
}

// Release returns the decode scratch to its pool.
func (r *shardRes) Release() { r.dec.Release() }

// count samples the shard and counts each 64-shot block's logical
// errors, checking halt before every block, and returns the counts of
// the blocks it finished. It runs on a ladder rung, which recovers any
// panic below it into a Fault the caller reports with the shard's
// (seed, firstBlock) repro; a shard shape the sampler would panic on is
// returned as an error instead.
func (r *shardRes) count() ([]int, error) {
	if err := r.smp.Validate(r.first, r.shots); err != nil {
		return nil, err
	}
	r.res = r.smp.Run(r.first, r.shots, r.seed)
	n := blocksOf(r.shots)
	for b := 0; b < n; b++ {
		if r.halt() {
			return r.counts[:b], nil
		}
		r.counts[b] = r.countBlock(b*blockShots, min(blockShots, r.shots-b*blockShots))
	}
	return r.counts[:n], nil
}

// countBlock decodes shots lanes starting at laneLo of the sampled
// shard — exactly one 64-shot block, laneLo 64-aligned — and counts
// logical errors. A decoding failure counts as a logical error,
// including matching panics that the decoder package recovers into
// errors at its Decode boundary. Whole blocks go through the batch
// seam when the pooled decoder has one; the scalar loop below is the
// fallback and the bit-identity reference.
func (r *shardRes) countBlock(laneLo, shots int) int {
	if errs, ok := r.dec.DecodeBlock(r.res, laneLo, shots); ok {
		return errs
	}
	errs := 0
	r.lanes.Extract(r.res, laneLo, shots)
	for l := 0; l < shots; l++ {
		corr, err := r.dec.Decode(r.lanes.Lane(l))
		if err != nil {
			errs++
			continue
		}
		for o := range r.c.Observables {
			if corr[o] != r.res.ObservableBit(o, laneLo+l) {
				errs++
				break
			}
		}
	}
	return errs
}
