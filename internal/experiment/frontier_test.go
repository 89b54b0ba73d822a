package experiment

import (
	"errors"
	"testing"
)

// The frontier settles every shard of a point: failures may land in any
// order (the coordinator quarantines in walk-away order, the engine in
// worker order), yet the Result lists them in block order, books each
// settled shard by its verdict, and ends the point at the first hole.
func TestFrontierSettleAndFail(t *testing.T) {
	cfg := Config{Shots: 8 * 64, Seed: 5, ShardShots: 64}
	fr := NewFrontier(cfg)
	fail := func(block int, out Outcome[[]int]) {
		fr.Fail(NewShardError(cfg, block, block, 1, out))
	}
	fr.Settle(0, []int{1}, VerdictOK)
	fr.Settle(1, []int{2}, VerdictRescued)
	fr.Settle(2, []int{3}, VerdictDegraded)
	fail(6, Outcome[[]int]{Verdict: VerdictDeadline, Kind: FlaggedMWPM})
	fail(4, Outcome[[]int]{Verdict: VerdictFailed, Kind: FlaggedMWPM, Fault: &Fault{Value: "boom"}})
	if fr.Limit() != 4 {
		t.Fatalf("Limit = %d, want 4 (the lowest failed shard)", fr.Limit())
	}
	if res := fr.Result(true); fr.Done() || !res.Interrupted {
		t.Fatalf("block 3 is open: Done=%t Interrupted=%t, want false/true", fr.Done(), res.Interrupted)
	}
	fr.Settle(3, []int{4}, VerdictOK)
	if !fr.Done() {
		t.Fatal("the committed prefix reached the failed shard but the frontier is not Done")
	}
	res := fr.Result(true)
	if res.Interrupted || res.EarlyStopped {
		t.Fatalf("a point settled at its hole is neither interrupted nor early-stopped: %+v", res)
	}
	if res.Blocks != 4 || res.Shots != 256 || res.LogicalErrors != 10 {
		t.Fatalf("prefix = %d blocks, %d shots, %d errors; want 4/256/10", res.Blocks, res.Shots, res.LogicalErrors)
	}
	if res.FallbackBlocks != 1 || res.DegradedBlocks != 1 || res.TimeoutBlocks != 2 {
		t.Fatalf("fallback/degraded/timeout blocks = %d/%d/%d, want 1/1/2",
			res.FallbackBlocks, res.DegradedBlocks, res.TimeoutBlocks)
	}
	if len(res.ShardErrors) != 2 || res.ShardErrors[0].FirstBlock != 4 || res.ShardErrors[1].FirstBlock != 6 {
		t.Fatalf("ShardErrors = %+v, want blocks 4 then 6", res.ShardErrors)
	}
	if se := res.ShardErrors[0]; se.Timeout || se.PanicValue != "boom" || se.Seed != 5 {
		t.Fatalf("panicked shard = %+v, want the panic value and the run's seed", se)
	}
	if se := res.ShardErrors[1]; !se.Timeout || !errors.Is(se.PanicValue.(error), ErrDecodeTimeout) {
		t.Fatalf("timed-out shard = %+v, want Timeout wrapping ErrDecodeTimeout", se)
	}
}

// A block is booked by its verdict when it enters the committed prefix:
// rescued shards settled past a TargetErrors stop point or past a
// quarantine hole never commit, so they are never counted.
func TestFrontierBooksCommittedBlocksOnly(t *testing.T) {
	cfg := Config{Shots: 8 * 64, Seed: 5, ShardShots: 64, TargetErrors: 3}
	fr := NewFrontier(cfg)
	fr.Settle(2, []int{0}, VerdictRescued) // in flight past the stop point
	fr.Settle(0, []int{3}, VerdictRescued) // commits and stops the point
	fr.Settle(1, []int{0}, VerdictDegraded)
	if res := fr.Result(false); !res.EarlyStopped || res.Blocks != 1 || res.FallbackBlocks != 1 ||
		res.DegradedBlocks != 0 || res.TimeoutBlocks != 0 {
		t.Fatalf("after the stop: stopped=%t blocks=%d fallback/degraded/timeout=%d/%d/%d, want true 1 1/0/0",
			res.EarlyStopped, res.Blocks, res.FallbackBlocks, res.DegradedBlocks, res.TimeoutBlocks)
	}

	cfg.TargetErrors = 0
	fr = NewFrontier(cfg)
	fr.Fail(NewShardError(cfg, 1, 1, 1, Outcome[[]int]{Verdict: VerdictFailed, Kind: FlaggedMWPM, Fault: &Fault{Value: "boom"}}))
	fr.Settle(2, []int{0}, VerdictRescued) // past the hole
	fr.Settle(0, []int{0}, VerdictRescued)
	if res := fr.Result(false); res.Blocks != 1 || res.FallbackBlocks != 1 {
		t.Fatalf("past the hole: blocks=%d FallbackBlocks=%d, want 1/1", res.Blocks, res.FallbackBlocks)
	}
}
