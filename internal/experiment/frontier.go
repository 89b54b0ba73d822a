// Block-ordered commit frontier and the one shard plan. This is the
// engine's determinism core: the local engine and the distributed sweep
// fabric (internal/fabric) cut a run into the same shards and merge
// their block results through the same commit and early-stopping logic
// — bit-identity of a distributed sweep is then a property of shared
// code, not of two implementations agreeing.
//
// The contract: per-block logical-error counts are a pure function of
// (circuit, base seed, block index); the frontier commits blocks in
// strict block order and evaluates the stop criteria (TargetErrors,
// MaxCI) only against the committed prefix, so the final (Blocks,
// Shots, Errors) triple does not depend on which worker produced which
// block, in which order, or how often a block was (re)computed.
package experiment

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Frontier tracks which 64-shot blocks of one run have been decoded and
// commits them in strict block order. Mark may be called from any
// goroutine; marking the same block again with the same count is an
// idempotent no-op (block counts are deterministic, so a shard replayed
// by a second worker always re-derives the same values). Commit
// advances the committed prefix and freezes it permanently once a stop
// criterion fires.
type Frontier struct {
	shots  int     //fpnvet:unguarded immutable after NewFrontier (total shot budget, Config.Shots)
	target int     //fpnvet:unguarded immutable after NewFrontier (Config.TargetErrors)
	maxCI  float64 //fpnvet:unguarded immutable after NewFrontier (Config.MaxCI)

	start     int          //fpnvet:unguarded immutable after NewFrontier (resume prefix)
	total     int          //fpnvet:unguarded immutable after NewFrontier (total 64-shot blocks)
	blockErrs []int32      //fpnvet:unguarded atomic element access; the slice header is immutable after NewFrontier
	limit     atomic.Int64 // blocks at or past this index never commit (quarantine)
	onCommit  func(Progress)

	mu        sync.Mutex
	committed int  //fpnvet:guardedby mu
	comShots  int  //fpnvet:guardedby mu
	comErrs   int  //fpnvet:guardedby mu
	finalized bool //fpnvet:guardedby mu (a stop criterion fired; commits are frozen)
}

// NewFrontier builds the commit frontier for cfg, honoring cfg.Resume
// as the already-committed prefix and cfg.OnCommit as the progress
// hook (invoked with the frontier lock held; the ledger policy's
// checkpoint puts run there). A resume prefix that already satisfies a
// stop criterion finalizes the frontier immediately, so a checkpoint
// written exactly at a stop point resumes bit-identically.
func NewFrontier(cfg Config) *Frontier {
	total := blocksOf(cfg.Shots)
	f := &Frontier{
		shots: cfg.Shots, target: cfg.TargetErrors, maxCI: cfg.MaxCI,
		total: total, onCommit: cfg.OnCommit,
	}
	if r := cfg.Resume; r != nil {
		f.start, f.committed, f.comShots, f.comErrs = r.Blocks, r.Blocks, r.Shots, r.Errors
	}
	if f.start < total {
		f.blockErrs = make([]int32, total-f.start)
	}
	f.limit.Store(int64(total))
	if f.committed < f.total && f.comShots < f.shots && stopCriteria(f.target, f.maxCI, f.comErrs, f.comShots) {
		f.finalized = true
	}
	return f
}

// Total reports the run's total 64-shot block count.
func (f *Frontier) Total() int { return f.total }

// DefaultShardShots is the shard plan's shard size when
// Config.ShardShots is zero: large enough to amortize the claim and
// commit synchronization, small enough to load-balance tail shards.
const DefaultShardShots = 1024

// Shard returns shard i of the run's one shard plan, which the engine's
// workers claim and the fabric coordinator leases: the blocks after the
// resumed prefix, cut into runs of shardShots shots (0 means
// DefaultShardShots) rounded up to whole 64-shot blocks. It reports the
// shard's first block and block count; blocks is 0 past the last shard.
func (f *Frontier) Shard(shardShots, i int) (first, blocks int) {
	if shardShots <= 0 {
		shardShots = DefaultShardShots
	}
	per := blocksOf(shardShots)
	first = f.start + i*per
	return first, max(0, min(per, f.total-first))
}

// blocksOf is the number of 64-shot blocks holding shots shots.
func blocksOf(shots int) int { return (shots + blockShots - 1) / blockShots }

// spanShots is the shot count of blocks [first, first+n) of a run of
// shots shots: 64 per block, except for a short tail.
func spanShots(shots, first, n int) int {
	return min((first+n)*blockShots, shots) - first*blockShots
}

// Mark records block's decoded logical-error count. The block must lie
// after the resumed prefix and before Total; marking outside that range
// is a caller bug and panics with the offending coordinates.
func (f *Frontier) Mark(block, errs int) {
	if block < f.start || block >= f.total {
		panic(fmt.Sprintf("experiment: Frontier.Mark(%d) outside [%d, %d)", block, f.start, f.total))
	}
	atomic.StoreInt32(&f.blockErrs[block-f.start], int32(errs)+1)
}

// Quarantine forbids commits at or past block: the committed prefix
// can never include a failed shard's blocks, or anything after them.
func (f *Frontier) Quarantine(block int) {
	for {
		q := f.limit.Load()
		if int64(block) >= q || f.limit.CompareAndSwap(q, int64(block)) {
			return
		}
	}
}

// Limit reports the current commit limit: the lowest quarantined block,
// or Total when nothing is quarantined.
func (f *Frontier) Limit() int { return int(f.limit.Load()) }

// Commit advances the committed prefix over every contiguously marked
// block, evaluating the stop criteria after each one, and reports
// whether the frontier advanced. Once a criterion fires the frontier is
// finalized and later marks are ignored forever — blocks computed past
// a deterministic stop point are discarded, never counted.
func (f *Frontier) Commit() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	prev := f.committed
	limit := int(f.limit.Load())
	for !f.finalized && f.committed < limit {
		v := atomic.LoadInt32(&f.blockErrs[f.committed-f.start])
		if v == 0 {
			break
		}
		f.comErrs += int(v - 1)
		f.comShots += spanShots(f.shots, f.committed, 1)
		f.committed++
		if f.comShots < f.shots && stopCriteria(f.target, f.maxCI, f.comErrs, f.comShots) {
			f.finalized = true
		}
	}
	if f.onCommit != nil && f.committed > prev {
		f.onCommit(Progress{Blocks: f.committed, Shots: f.comShots, Errors: f.comErrs})
	}
	return f.committed > prev
}

// State returns the committed prefix — always block-aligned and
// therefore a valid Resume point.
func (f *Frontier) State() Progress {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Progress{Blocks: f.committed, Shots: f.comShots, Errors: f.comErrs}
}

// Finalized reports that a stop criterion fired on the committed
// prefix; the run's result is frozen.
func (f *Frontier) Finalized() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.finalized
}

// Done reports that the run is over: every block committed, or a stop
// criterion finalized the prefix early.
func (f *Frontier) Done() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.finalized || f.committed >= f.total
}

// stopCriteria is the early-stop predicate shared by the frontier and
// the package-level stopSatisfied helper. The CI criterion requires at
// least one observed error so deep-BER points run their full budget.
func stopCriteria(target int, maxCI float64, errs, shots int) bool {
	if target > 0 && errs >= target {
		return true
	}
	if maxCI > 0 && errs > 0 {
		lo, hi := wilson(errs, shots)
		if (hi-lo)/2 <= maxCI {
			return true
		}
	}
	return false
}
