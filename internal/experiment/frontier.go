// Block-ordered commit frontier, the one shard plan and the one place a
// shard is settled. This is the engine's determinism core: the local
// engine and the distributed sweep fabric (internal/fabric) cut a run
// into the same shards, settle each one — counts marked and committed,
// or a failure quarantined — through the same calls, and assemble the
// point's Result in the same place. Bit-identity of a distributed sweep,
// and of its rescue and quarantine accounting, is then a property of
// shared code, not of two implementations agreeing.
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
	"sort"
	"sync"
	"sync/atomic"
)

// Frontier tracks which 64-shot blocks of one run have been decoded and
// commits them in strict block order. Mark may be called from any
// goroutine; marking the same block again with the same count is an
// idempotent no-op (block counts are deterministic, so a shard replayed
// by a second worker always re-derives the same values). Commit
// advances the committed prefix and freezes it permanently once a stop
// criterion fires. Settle and Fail are the two ways a shard leaves the
// plan, and Result is the point's outcome.
type Frontier struct {
	cfg Config //fpnvet:unguarded immutable after NewFrontier (Shots, TargetErrors, MaxCI, and the Result's Config)

	start     int          //fpnvet:unguarded immutable after NewFrontier (resume prefix)
	total     int          //fpnvet:unguarded immutable after NewFrontier (total 64-shot blocks)
	blockErrs []int32      //fpnvet:unguarded atomic element access; the slice header is immutable after NewFrontier (see mark)
	limit     atomic.Int64 // blocks at or past this index never commit (quarantine)
	onCommit  func(Progress)

	mu        sync.Mutex
	committed int  //fpnvet:guardedby mu
	comShots  int  //fpnvet:guardedby mu
	comErrs   int  //fpnvet:guardedby mu
	finalized bool //fpnvet:guardedby mu (a stop criterion fired; commits are frozen)

	fallbackBlocks int          //fpnvet:guardedby mu (Result.FallbackBlocks)
	timeoutBlocks  int          //fpnvet:guardedby mu (Result.TimeoutBlocks)
	degradedBlocks int          //fpnvet:guardedby mu (Result.DegradedBlocks)
	shardErrs      []ShardError //fpnvet:guardedby mu (Result.ShardErrors, in failure order)
}

// NewFrontier builds the commit frontier for cfg, honoring cfg.Resume
// as the already-committed prefix and cfg.OnCommit as the progress
// hook (invoked with the frontier lock held; the ledger policy's
// checkpoint puts run there). A resume prefix that already satisfies a
// stop criterion finalizes the frontier immediately, so a checkpoint
// written exactly at a stop point resumes bit-identically.
func NewFrontier(cfg Config) *Frontier {
	total := blocksOf(cfg.Shots)
	f := &Frontier{cfg: cfg, total: total, onCommit: cfg.OnCommit}
	if r := cfg.Resume; r != nil {
		f.start, f.committed, f.comShots, f.comErrs = r.Blocks, r.Blocks, r.Shots, r.Errors
	}
	if f.start < total {
		f.blockErrs = make([]int32, total-f.start)
	}
	f.limit.Store(int64(total))
	if f.committed < f.total && f.comShots < cfg.Shots && stopSatisfied(cfg, f.comErrs, f.comShots) {
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
func (f *Frontier) Mark(block, errs int) { f.mark(block, errs, VerdictOK) }

// verdictShift places a block's Verdict above its error count in one
// blockErrs word: a 64-shot block has at most 64 logical errors, so
// count+1 fits below bit 16.
const verdictShift = 16

// mark stores block's count and the verdict it was decoded under as one
// word — 0 while the block is unmarked, else count+1 with the verdict
// above verdictShift — so Commit reads both atomically.
func (f *Frontier) mark(block, errs int, v Verdict) {
	if block < f.start || block >= f.total {
		panic(fmt.Sprintf("experiment: Frontier.Mark(%d) outside [%d, %d)", block, f.start, f.total))
	}
	atomic.StoreInt32(&f.blockErrs[block-f.start], int32(errs)+1|int32(v)<<verdictShift)
}

// Settle records a decoded shard: it marks counts from block first on
// under the verdict of the attempt that decoded them, and commits. Each
// block is booked by that verdict (Result.FallbackBlocks, TimeoutBlocks,
// DegradedBlocks) when it enters the committed prefix, so blocks decoded
// past a stop point or a quarantine hole are never counted. The caller
// that knows only that a fallback decoder produced the counts passes
// VerdictRescued.
func (f *Frontier) Settle(first int, counts []int, v Verdict) {
	for i, errs := range counts {
		f.mark(first+i, errs, v)
	}
	f.Commit()
}

// Fail quarantines the shard se describes: commits at or past its first
// block are forbidden — the committed prefix can never include a failed
// shard's blocks, or anything after them — and se is kept for the
// Result. A timed-out shard's blocks are booked in TimeoutBlocks.
func (f *Frontier) Fail(se ShardError) {
	for {
		q := f.limit.Load()
		if int64(se.FirstBlock) >= q || f.limit.CompareAndSwap(q, int64(se.FirstBlock)) {
			break
		}
	}
	v := VerdictFailed
	if se.Timeout {
		v = VerdictDeadline
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.bookLocked(v, se.Blocks)
	f.shardErrs = append(f.shardErrs, se)
}

// bookLocked counts n blocks settled under verdict v. Caller holds f.mu.
func (f *Frontier) bookLocked(v Verdict, n int) {
	if v.TimedOut() {
		f.timeoutBlocks += n
	}
	switch v {
	case VerdictRescued:
		f.fallbackBlocks += n
	case VerdictDegraded:
		f.degradedBlocks += n
	}
}

// Limit reports the current commit limit: the lowest failed shard's
// first block, or Total when no shard failed.
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
		f.comErrs += int(v&(1<<verdictShift-1)) - 1
		f.bookLocked(Verdict(v>>verdictShift), 1)
		f.comShots += spanShots(f.cfg.Shots, f.committed, 1)
		f.committed++
		if f.comShots < f.cfg.Shots && stopSatisfied(f.cfg, f.comErrs, f.comShots) {
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

// Done reports that the run is over: the committed prefix reached the
// commit limit — every block, or everything before a failed shard — or
// a stop criterion finalized it early. Shards at or past Limit can
// never commit, so nobody needs to decode them.
func (f *Frontier) Done() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.doneLocked()
}

func (f *Frontier) doneLocked() bool { return f.finalized || f.committed >= f.Limit() }

// Result assembles the point's outcome from the committed prefix, the
// block accounting and the failed shards in block order. cancelled
// reports that the caller's context was cancelled; the Result is then
// Interrupted unless the run is Done anyway.
func (f *Frontier) Result(cancelled bool) *Result {
	f.mu.Lock()
	defer f.mu.Unlock()
	res := Reconstruct(f.cfg, f.committed, f.comShots, f.comErrs, f.finalized)
	res.Interrupted = cancelled && !f.doneLocked()
	res.FallbackBlocks, res.TimeoutBlocks, res.DegradedBlocks = f.fallbackBlocks, f.timeoutBlocks, f.degradedBlocks
	res.ShardErrors = append([]ShardError(nil), f.shardErrs...)
	sort.Slice(res.ShardErrors, func(i, j int) bool { return res.ShardErrors[i].FirstBlock < res.ShardErrors[j].FirstBlock })
	return res
}

// stopSatisfied evaluates the early-stop criteria on the committed
// prefix. The CI criterion requires at least one observed error so that
// deep-BER points (whose whole purpose is resolving a tiny rate) run
// their full shot budget instead of stopping on an empty estimate.
func stopSatisfied(cfg Config, errs, shots int) bool {
	if cfg.TargetErrors > 0 && errs >= cfg.TargetErrors {
		return true
	}
	if cfg.MaxCI > 0 && errs > 0 {
		lo, hi := wilson(errs, shots)
		if (hi-lo)/2 <= cfg.MaxCI {
			return true
		}
	}
	return false
}
