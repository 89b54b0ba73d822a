package sim

import (
	"fmt"
	"math/rand"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/seedmix"
)

// BlockSampler samples a circuit in multi-block passes where every
// 64-shot block (one bit-packed word) consumes its own RNG stream
// seeded seedmix.Derive(base, blockIndex). A block's outcome therefore
// depends only on (circuit, base, blockIndex) — never on how blocks are
// grouped into passes — which is what lets a sharded Monte-Carlo run
// batch an entire shard per pass while staying bit-identical for any
// shard size. Reusing a BlockSampler yields the same bits as a fresh
// one. Construct one per goroutine; it is not safe for concurrent use.
type BlockSampler struct {
	fs  *frameSim
	max int // capacity in blocks
	res Result
}

// NewBlockSampler builds a reusable block-mode sampler with capacity
// for maxBlocks 64-shot blocks per Run call.
func NewBlockSampler(c *circuit.Circuit, maxBlocks int) *BlockSampler {
	fs := newFrameSim(c, maxBlocks*64)
	fs.wordRngs = make([]*rand.Rand, maxBlocks)
	for i := range fs.wordRngs {
		fs.wordRngs[i] = rand.New(rand.NewSource(0))
	}
	return &BlockSampler{fs: fs, max: maxBlocks}
}

// Validate reports whether a Run call with these arguments would be
// legal: firstBlock must be non-negative and shots must lie in
// (0, maxBlocks*64]. Callers that receive shot counts from external
// input should Validate first — Run treats out-of-range arguments as a
// programming error and panics.
func (s *BlockSampler) Validate(firstBlock, shots int) error {
	if firstBlock < 0 {
		return fmt.Errorf("sim: BlockSampler firstBlock %d is negative", firstBlock)
	}
	if shots <= 0 || shots > s.max*64 {
		return fmt.Errorf("sim: BlockSampler shots %d outside (0, %d]", shots, s.max*64)
	}
	return nil
}

// Run samples shots lanes as consecutive blocks firstBlock,
// firstBlock+1, …; lane l belongs to block firstBlock + l/64. The
// returned Result aliases the sampler's buffers and is valid only until
// the next Run call. Run panics if the arguments are out of range; use
// Validate to check untrusted counts.
func (s *BlockSampler) Run(firstBlock, shots int, base int64) *Result {
	if err := s.Validate(firstBlock, shots); err != nil {
		panic(err)
	}
	s.fs.reset(shots)
	for wi := 0; wi < s.fs.words; wi++ {
		s.fs.wordRngs[wi].Seed(seedmix.Derive(base, uint64(firstBlock+wi)))
	}
	for oi, op := range s.fs.c.Ops {
		s.fs.apply(oi, op, true, nil)
	}
	s.fs.resultInto(&s.res)
	return &s.res
}
