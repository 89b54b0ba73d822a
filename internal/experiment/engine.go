// Sharded streaming Monte-Carlo engine. A run's shots are split into
// fixed 64-shot sampling blocks (one bit-packed word each); the
// frontier's shard plan groups them into shards — contiguous runs of
// blocks — and in-process workers claim shards from an atomic counter.
// The engine runs on BlockRunner, the one shard path: each claimed
// shard is simulated, decoded and counted by BlockRunner.climb, exactly
// as a fabric worker counts a leased one, and settled on the Frontier
// (Settle or Fail), exactly as the fabric coordinator settles a
// completion or a quarantine; the Frontier assembles the Result. A
// shard is sampled in one multi-word pass, but every block inside it
// consumes its own RNG stream seeded seedmix.Derive(cfg.Seed,
// blockIndex), so the sampled error stream of a block depends only on
// (circuit, base seed, block index) and the run's outcome is
// bit-identical for any worker count and any shard size. Peak memory is
// O(workers × shardShots × detectors) instead of O(shots × detectors).
//
// Early stopping is deterministic too: block results are committed
// strictly in block order, and the stop criteria (target logical-error
// count, Wilson CI half-width) are evaluated only against the committed
// prefix. Blocks simulated past the stop point are discarded, so the
// reported (Shots, LogicalErrors) pair does not depend on scheduling.
//
// The engine is crash-safe in three independent ways. Cancellation: a
// context threaded through RunContext is observed at shard boundaries
// and the committed prefix is returned as a partial Result
// (Result.Interrupted) instead of being discarded. Panic isolation: a
// per-shard recover converts decoder/matching/sampler panics into a
// structured ShardError carrying an exact (seed, firstBlock) repro;
// the failed shard is quarantined — optionally retried with a fallback
// decoder chain first — and the run ends on the healthy prefix before
// it. Resume: because any committed prefix is block-aligned and every
// block's RNG stream depends only on (circuit, seed, blockIndex), a run
// restarted from Config.Resume is bit-identical to one that never
// stopped.
//
// A fourth guard, Config.DecodeTimeout, covers decoders that hang or
// crawl instead of panicking: a shard attempt that outlives the
// deadline is abandoned (its goroutine leaks until it returns on its
// own) and retried deterministically under the fallback chain — same
// seed, same firstBlock — with every affected block explicitly counted
// in Result.TimeoutBlocks and Result.DegradedBlocks. Both paths are the
// decode-attempt ladder (ladder.go).
package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/decoder"
	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/noise"
	"github.com/fpn/flagproxy/internal/schedule"
	"github.com/fpn/flagproxy/internal/seedmix"
	"github.com/fpn/flagproxy/internal/sim"
)

// blockShots is the atomic sampling unit: one bit-packed word. RNG
// seeds are derived per block, never per shard, so shard size is a pure
// scheduling knob with no statistical footprint.
const blockShots = 64

// Resume restarts the engine from a previously committed prefix: the
// first Blocks 64-shot blocks are taken as already counted, holding
// Shots shots and Errors logical errors. Because every block's RNG
// stream depends only on (circuit, seed, blockIndex), a resumed run is
// bit-identical to one that was never interrupted. Shots must equal
// min(Blocks*64, Config.Shots) — the shot count a committed prefix of
// that many blocks necessarily holds — or validation fails, catching
// checkpoints replayed against a mismatched configuration.
type Resume struct {
	Blocks int // committed 64-shot blocks
	Shots  int // shots in those blocks: min(Blocks*64, Config.Shots)
	Errors int // logical errors observed in those blocks
}

// Progress is a snapshot of the committed prefix, delivered to
// Config.OnCommit each time the commit frontier advances. Snapshots are
// monotone and block-aligned, so any of them is a valid Resume state.
type Progress struct {
	Blocks int
	Shots  int
	Errors int
}

// ErrDecodeTimeout is the failure value of a shard attempt abandoned at
// Config.DecodeTimeout; it appears (wrapped) as the PanicValue of a
// quarantined ShardError whose Timeout flag is set.
var ErrDecodeTimeout = errors.New("experiment: decode deadline exceeded")

// ShardError describes a worker panic, sampler-contract violation or
// decode-deadline expiry that was quarantined to a single shard instead
// of crashing or stalling the run. Because block RNG streams depend
// only on (seed, blockIndex), the pair (Seed, FirstBlock) pins down the
// exact failing input: rerunning the point with ShardShots=64 and a
// Resume at FirstBlock replays it.
type ShardError struct {
	Seed       int64  // base seed of the run
	Shard      int    // shard index within this (possibly resumed) run
	FirstBlock int    // absolute index of the shard's first 64-shot block
	Blocks     int    // 64-shot blocks covered by the shard
	Decoder    string // decoder active when the attempt failed
	Timeout    bool   // the attempt hit Config.DecodeTimeout instead of panicking
	PanicValue any
	Stack      []byte // stack captured at recover time (empty for timeouts)
}

// Error formats the quarantine report with the repro coordinates.
func (e *ShardError) Error() string {
	verb := "panicked"
	if e.Timeout {
		verb = "timed out"
	}
	return fmt.Sprintf("experiment: shard %d (blocks %d..%d, decoder %s) %s: %v; repro: seed=%d firstBlock=%d",
		e.Shard, e.FirstBlock, e.FirstBlock+e.Blocks-1, e.Decoder, verb, e.PanicValue, e.Seed, e.FirstBlock)
}

// Repro returns just the (seed, firstBlock) coordinates that replay the
// failing shard deterministically.
func (e *ShardError) Repro() string {
	return fmt.Sprintf("seed=%d firstBlock=%d", e.Seed, e.FirstBlock)
}

// Pipeline caches the p-independent artifacts of a memory experiment —
// the FPN network, the schedule and the lowered round plan — so a sweep
// over p-points and bases pays the architecture and scheduling cost
// once. Pipelines are safe for concurrent Run calls.
type Pipeline struct {
	Code  *css.Code
	Arch  fpn.Options
	Net   *fpn.Network
	Sched *schedule.Schedule
	Plan  *schedule.RoundPlan
}

// NewPipeline builds the network, greedy schedule and round plan for
// (code, arch) once, for reuse across many Run configurations.
func NewPipeline(code *css.Code, arch fpn.Options) (*Pipeline, error) {
	net, err := fpn.Build(code, arch)
	if err != nil {
		return nil, err
	}
	s, err := schedule.Greedy(net)
	if err != nil {
		return nil, err
	}
	plan, err := schedule.BuildRoundPlan(s)
	if err != nil {
		return nil, err
	}
	return &Pipeline{Code: code, Arch: arch, Net: net, Sched: s, Plan: plan}, nil
}

// NewPipelineFromSchedule wraps an externally built schedule (e.g. the
// canonical rotated-surface-code ordering) in a reusable pipeline. The
// schedule's network must have been built for code.
func NewPipelineFromSchedule(code *css.Code, s *schedule.Schedule) (*Pipeline, error) {
	plan, err := schedule.BuildRoundPlan(s)
	if err != nil {
		return nil, err
	}
	return &Pipeline{Code: code, Net: s.Net, Sched: s, Plan: plan}, nil
}

// Run executes the p-dependent tail of the pipeline — circuit, detector
// error model, decoder — and samples cfg.Shots shots with the sharded
// engine. cfg.Code, cfg.Arch and cfg.Schedule are ignored in favor of
// the pipeline's cached artifacts (cfg.Code must match pl.Code).
func (pl *Pipeline) Run(cfg Config) (*Result, error) {
	return pl.RunContext(context.Background(), cfg)
}

// RunContext is Run under a context. When ctx is cancelled, workers
// stop at the next shard boundary and the committed prefix is returned
// as a partial Result with Interrupted set — a valid Resume point —
// rather than an error.
func (pl *Pipeline) RunContext(ctx context.Context, cfg Config) (*Result, error) {
	t, err := pl.buildTail(cfg)
	if err != nil {
		return nil, err
	}
	res := runEngine(ctx, newBlockRunner(t.cfg, t.c, t.dec, t.mk))
	res.Net, res.LatencyNs = pl.Net, pl.Plan.LatencyNs
	return res, nil
}

// tail is the p-dependent half of a run: the normalized configuration,
// the noisy circuit, its detector error model, the primary decoder and
// the lazy fallback-decoder factory.
type tail struct {
	cfg   Config
	c     *circuit.Circuit
	model *dem.Model
	dec   Decoder
	mk    func(DecoderKind) (Decoder, error)
}

// buildTail validates cfg, normalizes its defaults (Rounds, pipeline
// artifacts) and constructs the p-dependent tail. It is shared by
// RunContext, NewBlockRunner, NewOnline and MeasureDeff, so every front
// end decodes through exactly the production stack.
func (pl *Pipeline) buildTail(cfg Config) (tail, error) {
	cfg.Code = pl.Code
	cfg.Schedule = pl.Sched
	if err := validate(cfg); err != nil {
		return tail{}, err
	}
	if cfg.CodeCapacity {
		cfg.Rounds = 1
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = cfg.Code.DX
		if cfg.Code.DZ < cfg.Rounds {
			cfg.Rounds = cfg.Code.DZ
		}
		if cfg.Rounds < 1 {
			return tail{}, fmt.Errorf("experiment: code has no distance metadata; set Rounds")
		}
	}
	nm := &noise.Model{P: cfg.P, FixedIdle: cfg.FixedIdle}
	var c *circuit.Circuit
	var err error
	if cfg.CodeCapacity {
		c, err = circuit.BuildCodeCapacity(pl.Plan, cfg.Basis, cfg.P)
	} else {
		c, err = circuit.BuildMemory(circuit.MemorySpec{Plan: pl.Plan, Basis: cfg.Basis, Rounds: cfg.Rounds, Noise: nm})
	}
	if err != nil {
		return tail{}, err
	}
	model, err := dem.Extract(c)
	if err != nil {
		return tail{}, err
	}
	// The primary and the fallback decoders share the circuit's error
	// model; fallbacks are built lazily, only when a shard actually
	// panics or times out. Every kind is lifted onto decoder.Batch
	// before WrapDecoder, so the chaos harness sees (and may
	// fault-inject) the actual production decoder; a wrapper that
	// returns anything but a *decoder.Batch routes its shards down the
	// per-lane loop.
	mk := func(k DecoderKind) (Decoder, error) {
		sd, err := newDecoder(k, model, cfg.Basis, nm.MeasFlip())
		if err != nil {
			return nil, err
		}
		var d Decoder = decoder.NewBatch(sd)
		if cfg.WrapDecoder != nil {
			d = cfg.WrapDecoder(k, d)
		}
		return d, nil
	}
	dec, err := mk(cfg.Decoder)
	if err != nil {
		return tail{}, err
	}
	return tail{cfg: cfg, c: c, model: model, dec: dec, mk: mk}, nil
}

// validate rejects configurations that would previously have poisoned a
// sweep silently: Shots <= 0 used to divide 0/0 into a NaN BER, and
// K <= 0 turned BERNorm into ±Inf.
func validate(cfg Config) error {
	if cfg.Code == nil {
		return fmt.Errorf("experiment: Config.Code is nil")
	}
	if cfg.Shots <= 0 {
		return fmt.Errorf("experiment: Shots must be positive (got %d)", cfg.Shots)
	}
	if cfg.Code.K <= 0 {
		return fmt.Errorf("experiment: code %q has k=%d logical qubits, BER_norm = BER/k is undefined (missing rank/distance metadata?)", cfg.Code.Name, cfg.Code.K)
	}
	if cfg.TargetErrors < 0 {
		return fmt.Errorf("experiment: TargetErrors must be >= 0 (got %d)", cfg.TargetErrors)
	}
	if cfg.MaxCI < 0 || cfg.MaxCI >= 1 {
		return fmt.Errorf("experiment: MaxCI must be in [0, 1) (got %g)", cfg.MaxCI)
	}
	if cfg.ShardShots < 0 {
		return fmt.Errorf("experiment: ShardShots must be >= 0 (got %d)", cfg.ShardShots)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("experiment: Workers must be >= 0 (got %d)", cfg.Workers)
	}
	for _, k := range cfg.Fallback {
		if k < FlaggedMWPM || k > BPOSD {
			return fmt.Errorf("experiment: unknown fallback decoder kind %d", k)
		}
	}
	if cfg.DecodeTimeout < 0 {
		return fmt.Errorf("experiment: DecodeTimeout must be >= 0 (got %v)", cfg.DecodeTimeout)
	}
	if r := cfg.Resume; r != nil {
		if r.Blocks < 0 || r.Shots < 0 || r.Errors < 0 {
			return fmt.Errorf("experiment: negative Resume field (%+v)", *r)
		}
		if r.Errors > r.Shots {
			return fmt.Errorf("experiment: Resume.Errors %d exceeds Resume.Shots %d", r.Errors, r.Shots)
		}
		if total := blocksOf(cfg.Shots); r.Blocks > total {
			return fmt.Errorf("experiment: Resume.Blocks %d exceeds the run's %d blocks (checkpoint from a different Shots?)", r.Blocks, total)
		}
		if want := spanShots(cfg.Shots, 0, r.Blocks); r.Shots != want {
			return fmt.Errorf("experiment: Resume.Shots %d inconsistent with %d committed blocks (want %d; checkpoint from a different configuration?)", r.Shots, r.Blocks, want)
		}
	}
	return nil
}

// DecoderPool shares one immutable decoder across worker goroutines
// while giving each worker a private decoder.DecodeScratch, so the
// steady-state decode loop stays allocation-free without any locking.
// Every decoder this package builds is a *decoder.Batch over a
// read-only scratch decoder, safe to share; all per-shot mutable state,
// the syndrome memo included, lives in the scratch.
type DecoderPool struct {
	dec   Decoder
	batch *decoder.Batch // non-nil iff dec is one: scratch decoding and the block path
	free  sync.Pool      // *decoder.DecodeScratch

	memoHits   atomic.Int64 // accumulated from scratches at Release
	memoMisses atomic.Int64
}

// NewDecoderPool wraps dec. A *decoder.Batch gets per-worker scratch
// arenas and the 64-shot block path; any other decoder — only what a
// Config.WrapDecoder returns — decodes per lane through plain Decode.
func NewDecoderPool(dec Decoder) *DecoderPool {
	p := &DecoderPool{dec: dec}
	if b, ok := dec.(*decoder.Batch); ok {
		p.batch = b
		p.free.New = func() any { return decoder.NewScratch() }
	}
	return p
}

// MemoStats reports the batch-memo hit/miss counts accumulated from
// every scratch released back to the pool.
func (p *DecoderPool) MemoStats() (hits, misses int64) {
	return p.memoHits.Load(), p.memoMisses.Load()
}

// Get borrows a worker-local handle. The handle is not safe for
// concurrent use; call Release when the worker is done so the scratch
// (and its warmed buffers) returns to the pool.
func (p *DecoderPool) Get() *PooledDecoder {
	d := &PooledDecoder{pool: p}
	if p.batch != nil {
		d.sc = p.free.Get().(*decoder.DecodeScratch)
	}
	return d
}

// PooledDecoder is one worker's view of a DecoderPool: the shared
// immutable decoder plus a private scratch arena.
type PooledDecoder struct {
	pool *DecoderPool
	sc   *decoder.DecodeScratch
}

// Decode routes through the zero-allocation DecodeWith hot path when
// the pool holds a Batch. It deliberately does NOT recover:
// the decoder package already converts its own invariant panics into
// errors at each DecodeWith boundary, and anything that still unwinds
// through here (a buggy third-party decoder, a sampler-contract
// violation) must reach the ladder's recover so the whole shard is
// quarantined with a repro instead of miscounted as per-shot logical
// errors.
func (d *PooledDecoder) Decode(defects []int32) ([]bool, error) {
	if d.sc != nil {
		return d.pool.batch.DecodeWith(d.sc, defects)
	}
	return d.pool.dec.Decode(defects)
}

// DecodeBlock decodes one 64-shot sampling block through the Batch,
// returning ok=false when the pool holds a wrapped plain decoder (the
// caller then runs the per-lane loop). A contract error from
// DecodeBatch is an engine bug, not a per-shot decode failure: it
// panics so the ladder quarantines the whole shard with a repro.
func (d *PooledDecoder) DecodeBlock(res *sim.Result, firstShot, n int) (errs int, ok bool) {
	if d.sc == nil {
		return 0, false
	}
	errs, err := d.pool.batch.DecodeBatch(res, firstShot, n, d.sc)
	if err != nil {
		panic(err)
	}
	return errs, true
}

// Release returns the scratch to the pool for the next worker, folding
// its memo counters into the pool's totals.
func (d *PooledDecoder) Release() {
	if d.sc != nil {
		if h, m := d.sc.TakeMemoStats(); h != 0 || m != 0 {
			d.pool.memoHits.Add(int64(h))
			d.pool.memoMisses.Add(int64(m))
		}
		d.pool.free.Put(d.sc)
		d.sc = nil
	}
}

// runEngine is the in-process scheduler over the frontier: workers
// claim the shards of its plan in order, count each on r's one shard
// path, and settle it on the frontier, which assembles the Result. The
// committed prefix is returned even when the run is cancelled or a
// shard fails; it is always a valid Resume point.
func runEngine(ctx context.Context, r *BlockRunner) *Result {
	if ctx == nil {
		ctx = context.Background()
	}
	fr := NewFrontier(r.cfg)
	if fr.Done() {
		// The resumed prefix already covers the run, or was written
		// exactly at a stop boundary the writer did not evaluate;
		// honoring it here keeps a resumed run bit-identical to an
		// uninterrupted one.
		return fr.Result(false)
	}
	_, maxBlocks := fr.Shard(r.cfg.ShardShots, 0) // the plan's first shard is its largest
	workers := r.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		nextShard atomic.Int64
		stop      atomic.Bool
	)
	halt := stop.Load
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res *shardRes // opened at the first shard; reused until an attempt abandoned at its deadline keeps it
			defer func() {
				if res != nil {
					res.Release()
				}
			}()
			for !stop.Load() {
				if ctx.Err() != nil {
					// Cancellation is observed at shard boundaries; the
					// committed prefix survives as a partial result.
					stop.Store(true)
					return
				}
				sh := int(nextShard.Add(1) - 1)
				first, n := fr.Shard(r.cfg.ShardShots, sh)
				if n == 0 || first >= fr.Limit() {
					// Past the plan, or at or past a failed shard, where
					// nothing can ever commit.
					return
				}
				if res == nil {
					res = r.open(r.ladder.pools.primary, maxBlocks, halt)
				}
				out := r.climb(r.ladder, &res, first, n, halt)
				if out.Err != nil || out.Verdict.Failed() {
					fr.Fail(NewShardError(r.cfg, sh, first, n, out))
				} else {
					// Settled by the worker, never an attempt goroutine, so an
					// abandoned attempt cannot publish after a fallback's result.
					fr.Settle(first, out.Val, out.Verdict)
				}
				if fr.Done() {
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	res := fr.Result(ctx.Err() != nil)
	res.MemoHits, res.MemoMisses = r.ladder.pools.memoStats()
	return res
}

// NewShardError reports a shard no rung could decode, from the outcome
// of its climb: the shard's repro coordinates and the failure that
// ended the climb — the returned error, the missed deadline, or the
// first rung's panic.
func NewShardError(cfg Config, shard, first, blocks int, out Outcome[[]int]) ShardError {
	se := ShardError{Seed: cfg.Seed, Shard: shard, FirstBlock: first, Blocks: blocks, Decoder: out.Kind.String()}
	switch {
	case out.Err != nil:
		se.PanicValue = out.Err
	case out.Verdict == VerdictDeadline:
		se.Timeout, se.PanicValue = true, fmt.Errorf("%w (DecodeTimeout=%v)", ErrDecodeTimeout, cfg.DecodeTimeout)
	default:
		se.PanicValue, se.Stack = out.Fault.Value, out.Fault.Stack
	}
	return se
}

// Sweep caches pipelines across the points of a figure: all (decoder,
// basis, p) points sharing a (code, arch) or (code, schedule) pair
// reuse one network/schedule/round-plan build. Safe for concurrent use.
type Sweep struct {
	mu    sync.Mutex
	pipes map[sweepKey]*Pipeline
}

type sweepKey struct {
	code  *css.Code
	sched *schedule.Schedule
	arch  fpn.Options
}

// NewSweep returns an empty pipeline cache.
func NewSweep() *Sweep { return &Sweep{pipes: map[sweepKey]*Pipeline{}} }

// Run behaves like the package-level Run but reuses the cached
// p-independent artifacts for cfg's (code, arch, schedule) triple.
func (sw *Sweep) Run(cfg Config) (*Result, error) {
	return sw.RunContext(context.Background(), cfg)
}

// RunContext is Run under a context; see Pipeline.RunContext for the
// cancellation contract.
func (sw *Sweep) RunContext(ctx context.Context, cfg Config) (*Result, error) {
	pl, err := sw.pipeline(cfg)
	if err != nil {
		return nil, err
	}
	return pl.RunContext(ctx, cfg)
}

func (sw *Sweep) pipeline(cfg Config) (*Pipeline, error) {
	if cfg.Code == nil {
		return nil, fmt.Errorf("experiment: Config.Code is nil")
	}
	key := sweepKey{code: cfg.Code, sched: cfg.Schedule, arch: cfg.Arch}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if pl, ok := sw.pipes[key]; ok {
		return pl, nil
	}
	pl, err := newPipelineFor(cfg)
	if err != nil {
		return nil, err
	}
	sw.pipes[key] = pl
	return pl, nil
}

// newPipelineFor builds cfg's pipeline: from cfg.Schedule when set,
// else through the greedy scheduler on (cfg.Code, cfg.Arch).
func newPipelineFor(cfg Config) (*Pipeline, error) {
	if cfg.Schedule != nil {
		return NewPipelineFromSchedule(cfg.Code, cfg.Schedule)
	}
	return NewPipeline(cfg.Code, cfg.Arch)
}

// PointSeed derives a statistically independent base seed for one sweep
// point from the run's base seed and the point's identity, using the
// same splitmix64 mixer as the shard engine. Sweep drivers must not
// pass one base seed verbatim to every point: the points would share
// identical RNG streams and their estimates would be correlated.
func PointSeed(base int64, fig string, dec DecoderKind, basis css.Basis, p float64) int64 {
	return seedmix.Derive(base, seedmix.String(fig), uint64(dec), uint64(basis), seedmix.Float(p))
}
