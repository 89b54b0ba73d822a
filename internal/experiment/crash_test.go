package experiment

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/decoder"
)

// panicOnCall wraps a decoder and panics on exactly one Decode call
// (0-based index n), imitating a pathological syndrome that trips a
// matching invariant on one specific shot — or on every call when every
// is set, imitating a primary decoder that is down.
type panicOnCall struct {
	dec   Decoder
	n     int64
	every bool
	calls atomic.Int64
}

func (d *panicOnCall) Decode(defects []int32) ([]bool, error) {
	if d.calls.Add(1)-1 == d.n || d.every {
		panic("injected: matching: stuck without maxCardinality")
	}
	return d.dec.Decode(defects)
}

// recoveredErrDecoder imitates a decoder whose internal matcher panics
// but which recovers at its Decode boundary the way the decoder package
// does — every call returns an error.
type recoveredErrDecoder struct{}

func (recoveredErrDecoder) Decode([]int32) (corr []bool, err error) {
	defer decoder.Recover(&err)
	panic("matching: stuck without maxCardinality")
}

// Satellite: a matcher panic recovered into an error at the decode
// boundary must ride the existing decode-failure path — every shot
// counts as a logical error, the engine finishes, nothing dies.
func TestRecoveredDecodePanicCountsAsFailure(t *testing.T) {
	c, _ := engineWorkload(t, 1e-3)
	cfg := Config{Shots: 640, Seed: 3, Workers: 2, ShardShots: 64}
	out := runEngine(context.Background(), newBlockRunner(cfg, c, recoveredErrDecoder{}, nil))
	if out.Shots != 640 || out.LogicalErrors != 640 {
		t.Fatalf("decode errors must count as logical errors: got %d/%d, want 640/640", out.LogicalErrors, out.Shots)
	}
	if len(out.ShardErrors) != 0 || out.Interrupted {
		t.Fatalf("recovered decode errors must not quarantine shards: %+v", out)
	}
}

// Tentpole: an unrecovered decoder panic loses at most its shard. The
// committed prefix before the failed shard survives, the error carries
// the exact (seed, firstBlock) repro, and the process lives.
func TestShardPanicQuarantine(t *testing.T) {
	c, dec := engineWorkload(t, 2e-3)
	const seed = int64(7)
	// Single worker + 64-shot shards: Decode call i belongs to shot i,
	// so call 320 is the first shot of block 5.
	bad := &panicOnCall{dec: dec, n: 320}
	cfg := Config{Shots: 640, Seed: seed, Workers: 1, ShardShots: 64}
	out := runEngine(context.Background(), newBlockRunner(cfg, c, bad, nil))
	if len(out.ShardErrors) != 1 {
		t.Fatalf("want exactly one quarantined shard, got %d (%+v)", len(out.ShardErrors), out.ShardErrors)
	}
	se := out.ShardErrors[0]
	if se.FirstBlock != 5 || se.Blocks != 1 || se.Seed != seed {
		t.Fatalf("shard error coordinates wrong: %+v", se)
	}
	if out.Blocks != 5 || out.Shots != 320 {
		t.Fatalf("healthy prefix not committed: blocks=%d shots=%d, want 5/320", out.Blocks, out.Shots)
	}
	msg := se.Error()
	if !strings.Contains(msg, fmt.Sprintf("seed=%d firstBlock=5", seed)) {
		t.Fatalf("shard error lost the repro line: %q", msg)
	}
	if !strings.Contains(msg, "maxCardinality") {
		t.Fatalf("shard error lost the panic value: %q", msg)
	}
	if len(se.Stack) == 0 {
		t.Fatal("shard error carries no stack")
	}
	// The prefix must be bit-identical to a healthy run's first 5 blocks.
	clean := runEngine(context.Background(), newBlockRunner(Config{Shots: 320, Seed: seed, Workers: 1, ShardShots: 64}, c, dec, nil))
	if out.LogicalErrors != clean.LogicalErrors {
		t.Fatalf("quarantined run's prefix differs from a clean 320-shot run: %d vs %d errors", out.LogicalErrors, clean.LogicalErrors)
	}
}

// Tentpole: the fallback decoder chain rescues a panicking shard and
// the run completes with no quarantine. The fallback here is the same
// healthy decoder, so the result must equal an uninjected run exactly.
func TestFallbackChainRescuesShard(t *testing.T) {
	c, dec := engineWorkload(t, 2e-3)
	bad := &panicOnCall{dec: dec, n: 320}
	mk := func(k DecoderKind) (Decoder, error) {
		if k != PlainMWPM {
			return nil, fmt.Errorf("unexpected fallback kind %v", k)
		}
		return dec, nil
	}
	cfg := Config{Shots: 640, Seed: 7, Workers: 1, ShardShots: 64, Fallback: []DecoderKind{PlainMWPM}}
	out := runEngine(context.Background(), newBlockRunner(cfg, c, bad, mk))
	if len(out.ShardErrors) != 0 {
		t.Fatalf("fallback chain did not rescue the shard: %+v", out.ShardErrors)
	}
	if out.Shots != 640 {
		t.Fatalf("rescued run incomplete: %d/640 shots", out.Shots)
	}
	if out.FallbackBlocks != 1 {
		t.Fatalf("FallbackBlocks = %d, want 1", out.FallbackBlocks)
	}
	clean := runEngine(context.Background(), newBlockRunner(Config{Shots: 640, Seed: 7, Workers: 1, ShardShots: 64}, c, dec, nil))
	if out.LogicalErrors != clean.LogicalErrors {
		t.Fatalf("identical fallback decoder changed the result: %d vs %d errors", out.LogicalErrors, clean.LogicalErrors)
	}
}

// A primary that panics on every shard leaves every block to the
// fallback chain. FallbackBlocks counts committed blocks only, so shards
// still in flight when TargetErrors stops the point are not booked and
// the count is the same at every worker count.
func TestFallbackBlocksIndependentOfWorkers(t *testing.T) {
	c, dec := engineWorkload(t, 5e-3)
	mk := func(DecoderKind) (Decoder, error) { return dec, nil }
	var want *Result
	for _, workers := range []int{1, 2, 4} {
		cfg := Config{Shots: 64 * 64, Seed: 3, Workers: workers, ShardShots: 64,
			TargetErrors: 20, Fallback: []DecoderKind{PlainMWPM}}
		out := runEngine(context.Background(), newBlockRunner(cfg, c, &panicOnCall{dec: dec, every: true}, mk))
		if !out.EarlyStopped || out.FallbackBlocks != out.Blocks {
			t.Fatalf("workers=%d: early-stopped=%t, FallbackBlocks=%d for %d committed blocks; want every committed block and no other",
				workers, out.EarlyStopped, out.FallbackBlocks, out.Blocks)
		}
		if want == nil {
			want = out
		} else if out.Blocks != want.Blocks || out.FallbackBlocks != want.FallbackBlocks {
			t.Fatalf("workers=%d: blocks/FallbackBlocks = %d/%d, want %d/%d as at workers=1",
				workers, out.Blocks, out.FallbackBlocks, want.Blocks, want.FallbackBlocks)
		}
	}
}

// A fallback chain whose decoders all fail must still quarantine, not
// loop or crash.
func TestFallbackChainExhausted(t *testing.T) {
	c, dec := engineWorkload(t, 2e-3)
	bad := &panicOnCall{dec: dec, n: 64}
	// The fallback panics too, on its first call: the shard stays dead.
	alsoBad := func(DecoderKind) (Decoder, error) { return &panicOnCall{dec: dec, n: 0}, nil }
	cfg := Config{Shots: 256, Seed: 9, Workers: 1, ShardShots: 64, Fallback: []DecoderKind{PlainMWPM}}
	out := runEngine(context.Background(), newBlockRunner(cfg, c, bad, alsoBad))
	if len(out.ShardErrors) != 1 {
		t.Fatalf("want one quarantined shard after fallback exhaustion, got %+v", out.ShardErrors)
	}
	if out.Blocks != 1 || out.Shots != 64 {
		t.Fatalf("prefix before the failed shard lost: blocks=%d shots=%d", out.Blocks, out.Shots)
	}
}

// Tentpole: cancellation returns the committed prefix as a partial,
// resumable result, and the resumed run is bit-identical to one that
// was never interrupted.
func TestCancelThenResumeBitIdentical(t *testing.T) {
	code := hyper55(t)
	pl, err := NewPipeline(code, engineArch)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Code: code, Basis: css.Z, P: 5e-3, Shots: 4096, Seed: 21,
		Decoder: FlaggedMWPM, Workers: 2, ShardShots: 64,
	}
	clean, err := pl.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if clean.LogicalErrors == 0 {
		t.Fatal("no logical errors at p=5e-3; the comparison would be vacuous")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := base
	cancelled := false
	cfg.OnCommit = func(pr Progress) {
		if pr.Blocks >= 8 && !cancelled {
			cancelled = true
			cancel()
		}
	}
	part, err := pl.RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Interrupted {
		t.Fatalf("run was not marked interrupted (committed %d/%d blocks)", part.Blocks, (base.Shots+63)/64)
	}
	if part.Shots >= base.Shots || part.Blocks*blockShots != part.Shots {
		t.Fatalf("partial result not a block-aligned prefix: blocks=%d shots=%d", part.Blocks, part.Shots)
	}
	resumed := base
	resumed.Resume = &Resume{Blocks: part.Blocks, Shots: part.Shots, Errors: part.LogicalErrors}
	full, err := pl.Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if full.Shots != clean.Shots || full.LogicalErrors != clean.LogicalErrors ||
		full.EarlyStopped != clean.EarlyStopped || full.Blocks != clean.Blocks {
		t.Fatalf("resume after cancel diverged: got (%d/%d early=%v), want (%d/%d early=%v)",
			full.LogicalErrors, full.Shots, full.EarlyStopped,
			clean.LogicalErrors, clean.Shots, clean.EarlyStopped)
	}
}

// Satellite: interrupt-at-every-k-blocks resume determinism. A run of N
// blocks is replayed N times, resumed from every committed state the
// uninterrupted run passed through; each replay must land on the exact
// same (Shots, LogicalErrors, EarlyStopped).
func TestResumeDeterminismEveryBlock(t *testing.T) {
	code := hyper55(t)
	pl, err := NewPipeline(code, engineArch)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Code: code, Basis: css.Z, P: 5e-3, Shots: 1000, Seed: 17,
		Decoder: FlaggedMWPM, Workers: 1, ShardShots: 64,
	}
	var states []Progress
	cfg := base
	cfg.OnCommit = func(pr Progress) { states = append(states, pr) }
	clean, err := pl.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.LogicalErrors == 0 {
		t.Fatal("determinism check would be vacuous with zero errors")
	}
	if len(states) < 10 {
		t.Fatalf("expected one commit state per 64-shot shard, got %d", len(states))
	}
	for _, st := range states {
		resumed := base
		resumed.Resume = &Resume{Blocks: st.Blocks, Shots: st.Shots, Errors: st.Errors}
		res, err := pl.Run(resumed)
		if err != nil {
			t.Fatalf("resume at block %d: %v", st.Blocks, err)
		}
		if res.Shots != clean.Shots || res.LogicalErrors != clean.LogicalErrors || res.EarlyStopped != clean.EarlyStopped {
			t.Fatalf("resume at block %d diverged: got (%d/%d early=%v), want (%d/%d early=%v)",
				st.Blocks, res.LogicalErrors, res.Shots, res.EarlyStopped,
				clean.LogicalErrors, clean.Shots, clean.EarlyStopped)
		}
	}
}

// Resume must also replay deterministic early stopping: a run that
// stops at TargetErrors must stop at the same shot when resumed from
// any committed prefix, including one written exactly at the stop.
func TestResumeDeterminismAcrossEarlyStop(t *testing.T) {
	code := hyper55(t)
	pl, err := NewPipeline(code, engineArch)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Code: code, Basis: css.Z, P: 1e-2, Shots: 100000, Seed: 11,
		Decoder: FlaggedMWPM, Workers: 1, ShardShots: 64, TargetErrors: 20,
	}
	var states []Progress
	cfg := base
	cfg.OnCommit = func(pr Progress) { states = append(states, pr) }
	clean, err := pl.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.EarlyStopped {
		t.Fatal("expected the clean run to early-stop")
	}
	for _, st := range states {
		resumed := base
		resumed.Resume = &Resume{Blocks: st.Blocks, Shots: st.Shots, Errors: st.Errors}
		res, err := pl.Run(resumed)
		if err != nil {
			t.Fatalf("resume at block %d: %v", st.Blocks, err)
		}
		if res.Shots != clean.Shots || res.LogicalErrors != clean.LogicalErrors || !res.EarlyStopped {
			t.Fatalf("resume at block %d diverged across early stop: got (%d/%d early=%v), want (%d/%d)",
				st.Blocks, res.LogicalErrors, res.Shots, res.EarlyStopped, clean.LogicalErrors, clean.Shots)
		}
	}
}

// Resuming a fully committed run must return it verbatim without
// launching a single worker.
func TestResumeFinishedRunIsNoop(t *testing.T) {
	code := hyper55(t)
	pl, err := NewPipeline(code, engineArch)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Code: code, Basis: css.Z, P: 5e-3, Shots: 320, Seed: 5, Decoder: FlaggedMWPM}
	clean, err := pl.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	resumed := base
	resumed.Resume = &Resume{Blocks: clean.Blocks, Shots: clean.Shots, Errors: clean.LogicalErrors}
	res, err := pl.Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != clean.Shots || res.LogicalErrors != clean.LogicalErrors || res.Interrupted {
		t.Fatalf("no-op resume changed the result: %+v", res)
	}
}

// Resume states that cannot belong to this run must be rejected before
// any sampling happens.
func TestValidateRejectsBadResume(t *testing.T) {
	code := hyper55(t)
	base := Config{Code: code, Arch: engineArch, Basis: css.Z, P: 1e-3, Shots: 1000, Decoder: FlaggedMWPM}
	for name, r := range map[string]*Resume{
		"negative-blocks":     {Blocks: -1},
		"errors-exceed-shots": {Blocks: 1, Shots: 64, Errors: 65},
		"blocks-past-run":     {Blocks: 17, Shots: 1000},
		"shots-misaligned":    {Blocks: 2, Shots: 100, Errors: 0},
	} {
		cfg := base
		cfg.Resume = r
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected a validation error for Resume %+v", name, *r)
		}
	}
}

// Race/stress satellite: cancel while every worker is mid-shard, many
// times, under -race in CI. The committed prefix must always be a
// consistent block-aligned state.
func TestCancelStress(t *testing.T) {
	code := hyper55(t)
	pl, err := NewPipeline(code, engineArch)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Code: code, Basis: css.Z, P: 5e-3, Shots: 1 << 15, Seed: 33,
		Decoder: FlaggedMWPM, Workers: 8, ShardShots: 64,
	}
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func(d time.Duration) {
			time.Sleep(d)
			cancel()
		}(time.Duration(i) * 300 * time.Microsecond)
		res, err := pl.RunContext(ctx, base)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.Shots > base.Shots || res.LogicalErrors > res.Shots {
			t.Fatalf("iteration %d: inconsistent partial result %d/%d", i, res.LogicalErrors, res.Shots)
		}
		if res.Shots < base.Shots {
			if !res.Interrupted {
				t.Fatalf("iteration %d: partial result not marked interrupted", i)
			}
			if res.Blocks*blockShots != res.Shots {
				t.Fatalf("iteration %d: prefix not block-aligned: blocks=%d shots=%d", i, res.Blocks, res.Shots)
			}
		}
	}
}

// The fingerprint must be stable across calls and sensitive to every
// result-affecting knob, while ignoring pure scheduling knobs.
func TestFingerprintSensitivity(t *testing.T) {
	code := hyper55(t)
	base := Config{Code: code, Arch: engineArch, Basis: css.Z, P: 1e-3, Shots: 1000, Seed: 1, Decoder: FlaggedMWPM}
	if base.Fingerprint() != base.Fingerprint() {
		t.Fatal("fingerprint is not deterministic")
	}
	distinct := map[string]func(*Config){
		"p":       func(c *Config) { c.P = 2e-3 },
		"shots":   func(c *Config) { c.Shots = 2000 },
		"seed":    func(c *Config) { c.Seed = 2 },
		"decoder": func(c *Config) { c.Decoder = PlainMWPM },
		"basis":   func(c *Config) { c.Basis = css.X },
		"rounds":  func(c *Config) { c.Rounds = 5 },
		"target":  func(c *Config) { c.TargetErrors = 10 },
		"maxci":   func(c *Config) { c.MaxCI = 0.01 },
		"cc":      func(c *Config) { c.CodeCapacity = true },
		"idle":    func(c *Config) { c.FixedIdle = true },
		"arch":    func(c *Config) { c.Arch.UseFlags = false },
	}
	seen := map[string]string{base.Fingerprint(): "base"}
	for name, mut := range distinct {
		cfg := base
		mut(&cfg)
		fp := cfg.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s: fingerprint collides with %s", name, prev)
		}
		seen[fp] = name
	}
	same := map[string]func(*Config){
		"workers": func(c *Config) { c.Workers = 16 },
		"shard":   func(c *Config) { c.ShardShots = 4096 },
		"resume":  func(c *Config) { c.Resume = &Resume{Blocks: 1, Shots: 64} },
		"hook":    func(c *Config) { c.OnCommit = func(Progress) {} },
		"timeout": func(c *Config) { c.DecodeTimeout = 5 * time.Second },
		"wrap":    func(c *Config) { c.WrapDecoder = func(_ DecoderKind, d Decoder) Decoder { return d } },
	}
	for name, mut := range same {
		cfg := base
		mut(&cfg)
		if cfg.Fingerprint() != base.Fingerprint() {
			t.Errorf("%s: scheduling knob changed the fingerprint", name)
		}
	}
}
