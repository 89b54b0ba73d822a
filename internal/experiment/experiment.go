// Package experiment runs the paper's memory experiments (§III-C): a
// code is held for d syndrome-extraction rounds under circuit-level
// noise, the syndrome history is decoded, and the block error rate
// BER (and BER_norm = BER/k) is estimated over many shots.
package experiment

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/decoder"
	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/schedule"
)

// DecoderKind selects the decoding algorithm.
type DecoderKind int

// Decoder kinds.
const (
	FlaggedMWPM DecoderKind = iota
	PlainMWPM               // PyMatching stand-in: ignores flag information
	FlaggedRestriction
	BaselineRestriction // Chamberland-style: flags only in the matching stage
	FlaggedUnionFind    // fast approximate decoder with flag-conditioned frames
	BPOSD               // belief propagation + OSD-0 on the detector error model
)

func (k DecoderKind) String() string {
	switch k {
	case FlaggedMWPM:
		return "flagged-mwpm"
	case PlainMWPM:
		return "plain-mwpm"
	case FlaggedRestriction:
		return "flagged-restriction"
	case BaselineRestriction:
		return "baseline-restriction"
	case FlaggedUnionFind:
		return "flagged-unionfind"
	case BPOSD:
		return "bp-osd"
	}
	return "unknown"
}

// Config describes one memory experiment.
type Config struct {
	Code    *css.Code
	Arch    fpn.Options
	Basis   css.Basis // memory basis
	Rounds  int       // 0 → min(dX, dZ)
	P       float64
	Shots   int
	Seed    int64
	Decoder DecoderKind
	// CodeCapacity switches to the code-capacity noise model: one
	// perfect syndrome-extraction round after independent depolarizing
	// noise on the data qubits (Rounds is ignored).
	CodeCapacity bool
	// Schedule, when non-nil, overrides the greedy scheduler (e.g. the
	// canonical rotated-surface-code ordering). Its network must have
	// been built for Code with options equivalent to Arch.
	Schedule *schedule.Schedule
	// FixedIdle selects the prior-work decoherence convention (flat p
	// per round) instead of the paper's latency-scaled T1/T2 model.
	FixedIdle bool

	// Workers bounds the shard workers (0 → GOMAXPROCS). The result is
	// bit-identical for any worker count.
	//fpnvet:sched parallelism only reshapes scheduling; shard seeding fixes the streams
	Workers int
	// ShardShots is the shard plan's granularity in shots (0 →
	// DefaultShardShots, rounded up to whole 64-shot blocks; see
	// Frontier.Shard). Purely a scheduling knob:
	// RNG streams are derived per 64-shot block, so the result is
	// bit-identical for any shard size.
	//fpnvet:sched shard size only regroups blocks; per-block seeding fixes the streams
	ShardShots int
	// TargetErrors, when > 0, stops the run once the committed logical
	// error count reaches it — the standard deep-BER trick: spend shots
	// where errors are rare, not where they are plentiful.
	TargetErrors int
	// MaxCI, when > 0, stops the run once the Wilson 95% CI half-width
	// of the committed BER estimate drops to it or below. It only
	// fires after at least one logical error has been committed, so
	// zero-error deep points still run their full shot budget.
	MaxCI float64

	// Resume, when non-nil, restarts the run from a previously
	// committed prefix (see the Resume type). The continuation is
	// bit-identical to a run that was never interrupted.
	//fpnvet:sched resume wiring consumes fingerprints, it must not change them
	Resume *Resume
	// Fallback lists decoder kinds to retry a shard with, in order,
	// when the primary decoder panics on it (graceful degradation, e.g.
	// BPOSD→MWPM). A rescued shard's blocks are decoded by the fallback
	// — Result.FallbackBlocks counts them — so the run completes at the
	// cost of mixed-decoder statistics on those blocks. Shards that
	// exhaust the chain are quarantined as ShardErrors.
	//fpnvet:sched fallback policy only reacts to decoder construction failure
	Fallback []DecoderKind
	// DecodeTimeout, when > 0, bounds the wall-clock time of one shard
	// attempt (sample + decode + count). A shard whose primary decoder
	// hangs or crawls past the deadline is abandoned and retried
	// deterministically — same seed, same firstBlock — under the
	// Fallback chain, each attempt under the same deadline, exactly
	// like the panic path; without it a hung decoder stalls the sweep
	// forever because nothing ever panics. Timed-out shards are counted
	// in Result.TimeoutBlocks (and DegradedBlocks when a fallback
	// rescues them); shards that exhaust the chain are quarantined as
	// ShardErrors with Timeout set. Size it generously — hundreds of
	// times the expected shard latency — so only a genuinely wedged
	// decoder trips it.
	//fpnvet:sched deadlines only reroute shards through the fallback chain; rescued blocks are explicitly counted in TimeoutBlocks/DegradedBlocks, never silent
	DecodeTimeout time.Duration
	// WrapDecoder, when non-nil, wraps every decoder the engine builds
	// (primary and fallback) before use. It exists for the chaos
	// harness and tests to inject faulty decoders through the public
	// API; production sweeps leave it nil.
	//fpnvet:sched fault-injection seam for the chaos harness; production sweeps leave it nil
	WrapDecoder func(kind DecoderKind, dec Decoder) Decoder
	// OnCommit, when non-nil, is invoked with a snapshot of the
	// committed prefix each time the commit frontier advances. Every
	// snapshot is block-aligned and therefore a valid Resume point —
	// this is the checkpointing hook. It is called with the engine's
	// commit lock held: keep it fast and do not call back into the run.
	//fpnvet:sched progress callback; observes results without affecting them
	OnCommit func(Progress)
}

// Result is the outcome of a memory experiment.
type Result struct {
	Config        Config
	Net           *fpn.Network
	LatencyNs     float64
	Shots         int
	LogicalErrors int
	BER           float64
	BERNorm       float64
	CILow, CIHigh float64 // Wilson 95% interval on BER
	// EarlyStopped reports that TargetErrors or MaxCI halted the run
	// before cfg.Shots; Shots then holds the committed count.
	EarlyStopped bool
	// Blocks is the committed 64-shot block count (including a resumed
	// prefix); Resume{Blocks, Shots, LogicalErrors} continues this run.
	Blocks int
	// Interrupted reports that the context was cancelled before the run
	// finished; Shots/LogicalErrors hold the committed prefix, which is
	// a valid Resume point.
	Interrupted bool
	// FallbackBlocks counts committed blocks whose shard panicked under
	// the primary decoder and was rescued by the Fallback chain.
	FallbackBlocks int
	// TimeoutBlocks counts blocks whose shard's primary decode attempt
	// exceeded Config.DecodeTimeout: committed blocks a fallback
	// rescued, and the blocks of timed-out shards quarantined. Nonzero
	// TimeoutBlocks means wall-clock pressure changed the decoding
	// schedule: investigate before trusting cross-run bit-identity.
	TimeoutBlocks int
	// DegradedBlocks counts blocks committed from a fallback decoder
	// after the primary timed out — the graceful-degradation analogue
	// of FallbackBlocks for the deadline path. The run completed, but
	// these blocks carry mixed-decoder statistics.
	DegradedBlocks int
	// ShardErrors lists shards quarantined after a panic or deadline
	// expiry that no fallback decoder could rescue, in block order. The
	// run's result is then the committed prefix before the first failed
	// shard.
	ShardErrors []ShardError
	// MemoHits and MemoMisses aggregate the batch-decode syndrome-memo
	// counters across all worker scratches (best effort: a scratch
	// deliberately leaked to a timed-out attempt keeps its counts).
	// Zero on the scalar path. Diagnostics only — they have no
	// statistical footprint.
	MemoHits, MemoMisses int64
}

// Run executes the full pipeline: architecture, schedule, circuit,
// detector error model, sharded sampling and decoding. Sweeps that
// revisit a (code, arch) or (code, schedule) pair should use a Sweep
// (or hold a Pipeline) to reuse the p-independent artifacts.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run under a context: cancellation is observed at shard
// boundaries and the committed prefix is returned as a partial Result
// with Interrupted set instead of being discarded.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	return NewSweep().RunContext(ctx, cfg)
}

// Reconstruct rebuilds the statistical fields of a Result from a
// committed (shots, logicalErrors) pair — e.g. a checkpoint record of a
// finished point — without rerunning anything. Net and LatencyNs are
// left zero; everything derivable from the counts (BER, BERNorm, the
// Wilson interval) matches what the original run reported.
func Reconstruct(cfg Config, blocks, shots, logicalErrors int, earlyStopped bool) *Result {
	ber := 0.0
	if shots > 0 {
		ber = float64(logicalErrors) / float64(shots)
	}
	berNorm := 0.0
	if cfg.Code != nil && cfg.Code.K > 0 {
		berNorm = ber / float64(cfg.Code.K)
	}
	lo, hi := wilson(logicalErrors, shots)
	return &Result{
		Config: cfg, Shots: shots, Blocks: blocks, LogicalErrors: logicalErrors,
		BER: ber, BERNorm: berNorm, CILow: lo, CIHigh: hi, EarlyStopped: earlyStopped,
	}
}

// Decoder is the common decode interface of both decoder families. It
// reads a shot as its defect list: the fired detector and flag ids,
// sorted and distinct. Ids outside the decoder's graph are ignored; the
// list is neither modified nor retained past the call.
type Decoder interface {
	Decode(defects []int32) ([]bool, error)
}

func newDecoder(kind DecoderKind, model *dem.Model, basis css.Basis, pM float64) (Decoder, error) {
	switch kind {
	case FlaggedMWPM:
		return decoder.NewMWPM(model, basis, pM, true)
	case PlainMWPM:
		return decoder.NewMWPM(model, basis, pM, false)
	case FlaggedRestriction:
		return decoder.NewRestriction(model, basis, pM, true, true)
	case BaselineRestriction:
		return decoder.NewRestriction(model, basis, pM, true, false)
	case FlaggedUnionFind:
		return decoder.NewUnionFind(model, basis, pM, true)
	case BPOSD:
		return decoder.NewBPOSD(model, basis, 30)
	}
	return nil, fmt.Errorf("experiment: unknown decoder kind %d", kind)
}

// batchify lifts a freshly built decoder onto the 64-shot batch path
// when its kind supports it. BPOSD stays scalar: its per-shot cost is
// dominated by BP message passing whose amortization lives in the
// scratch, not in syndrome repetition, and keeping one decoder family
// on the scalar loop preserves a production consumer of that path.
func batchify(kind DecoderKind, dec Decoder) Decoder {
	if kind == BPOSD {
		return dec
	}
	if sd, ok := dec.(decoder.ScratchDecoder); ok {
		return decoder.NewBatch(sd)
	}
	return dec
}

// wilson returns the 95% Wilson score interval for k successes in n
// trials.
func wilson(k, n int) (float64, float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.96
	p := float64(k) / float64(n)
	nn := float64(n)
	denom := 1 + z*z/nn
	center := (p + z*z/(2*nn)) / denom
	half := z * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn)) / denom
	lo, hi := center-half, center+half
	// At the k=0 / k=n boundaries the exact bounds are 0 and 1, but
	// center∓half computes them as a difference of equal-magnitude terms
	// and can leave ~1e-17 of rounding residue on the wrong side of the
	// clamp; pin them so a zero-error prefix reports CILow == 0 exactly.
	if lo < 0 || k == 0 {
		lo = 0
	}
	if hi > 1 || k == n {
		hi = 1
	}
	return lo, hi
}
