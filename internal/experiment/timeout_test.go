package experiment

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fpn/flagproxy/internal/css"
)

// hangOnCall wraps a decoder and blocks on exactly one Decode call
// (0-based index n) until release is closed, imitating a decoder that
// wedges on one pathological syndrome instead of panicking. Tests must
// close release before returning so the abandoned attempt goroutine can
// exit.
type hangOnCall struct {
	dec     Decoder
	n       int64
	calls   atomic.Int64
	release chan struct{}
}

func (d *hangOnCall) Decode(defects []int32) ([]bool, error) {
	if d.calls.Add(1)-1 == d.n {
		<-d.release
		return nil, fmt.Errorf("injected hang released")
	}
	return d.dec.Decode(defects)
}

// slowOnCall wraps a decoder and sleeps before every Decode call — a
// decoder that crawls but still finishes.
type slowOnCall struct {
	dec   Decoder
	delay time.Duration
}

func (d *slowOnCall) Decode(defects []int32) ([]bool, error) {
	time.Sleep(d.delay)
	return d.dec.Decode(defects)
}

// Tentpole: a decoder that hangs forever would stall the sweep — no
// panic ever fires, so the panic-isolation path never triggers. The
// decode deadline must abandon the attempt and the fallback chain must
// rescue the shard deterministically: same seed, same firstBlock, so
// with a healthy fallback the result is bit-identical to a clean run.
func TestHungDecoderRescuedByFallbackWithinDeadline(t *testing.T) {
	c, dec := crashWorkload(t, 2e-3)
	release := make(chan struct{})
	defer close(release)
	// Single worker + 64-shot shards: call 320 is the first shot of
	// block 5, so the primary wedges at the start of shard 5.
	bad := &hangOnCall{dec: dec, n: 320, release: release}
	mk := func(k DecoderKind) (Decoder, error) { return dec, nil }
	cfg := Config{
		Shots: 640, Seed: 7, Workers: 1, ShardShots: 64,
		Fallback:      []DecoderKind{PlainMWPM},
		DecodeTimeout: time.Second,
	}
	begin := time.Now()
	out := runEngine(context.Background(), newBlockRunner(cfg, c, bad, mk))
	elapsed := time.Since(begin)
	if len(out.ShardErrors) != 0 {
		t.Fatalf("deadline + fallback did not rescue the hung shard: %+v", out.ShardErrors)
	}
	if out.Shots != 640 {
		t.Fatalf("rescued run incomplete: %d/640 shots", out.Shots)
	}
	if out.TimeoutBlocks != 1 {
		t.Fatalf("timeoutBlocks = %d, want 1", out.TimeoutBlocks)
	}
	if out.DegradedBlocks != 1 {
		t.Fatalf("degradedBlocks = %d, want 1", out.DegradedBlocks)
	}
	if out.FallbackBlocks != 0 {
		t.Fatalf("fallbackBlocks = %d, want 0: timeout rescues must be counted as degraded, not panic-rescued", out.FallbackBlocks)
	}
	// One deadline was burned on the hung attempt; everything else is
	// fast. Allow generous slack for races and loaded CI machines.
	if budget := cfg.DecodeTimeout + 30*time.Second; elapsed > budget {
		t.Fatalf("run took %v, exceeding the deadline budget %v", elapsed, budget)
	}
	clean := runEngine(context.Background(), newBlockRunner(Config{Shots: 640, Seed: 7, Workers: 1, ShardShots: 64}, c, dec, nil))
	if out.LogicalErrors != clean.LogicalErrors {
		t.Fatalf("degraded run diverged from clean run: %d vs %d errors", out.LogicalErrors, clean.LogicalErrors)
	}
}

// A slow-but-finishing decoder under a generous deadline must take the
// watchdog path without changing a single bit of the result.
func TestSlowDecoderUnderDeadlineBitIdentical(t *testing.T) {
	c, dec := crashWorkload(t, 2e-3)
	slow := &slowOnCall{dec: dec, delay: 50 * time.Microsecond}
	cfg := Config{Shots: 640, Seed: 7, Workers: 2, ShardShots: 64, DecodeTimeout: 30 * time.Second}
	out := runEngine(context.Background(), newBlockRunner(cfg, c, slow, nil))
	if out.TimeoutBlocks != 0 || out.DegradedBlocks != 0 || len(out.ShardErrors) != 0 {
		t.Fatalf("slow decoder under deadline must not degrade: %+v", out)
	}
	clean := runEngine(context.Background(), newBlockRunner(Config{Shots: 640, Seed: 7, Workers: 2, ShardShots: 64}, c, dec, nil))
	if out.Shots != clean.Shots || out.LogicalErrors != clean.LogicalErrors {
		t.Fatalf("watchdog path changed the result: got %d/%d, want %d/%d",
			out.LogicalErrors, out.Shots, clean.LogicalErrors, clean.Shots)
	}
}

// A hung shard with no (or an exhausted) fallback chain must be
// quarantined with Timeout set and the ErrDecodeTimeout cause, while
// the committed prefix before it survives.
func TestHungDecoderWithoutFallbackQuarantines(t *testing.T) {
	c, dec := crashWorkload(t, 2e-3)
	release := make(chan struct{})
	defer close(release)
	bad := &hangOnCall{dec: dec, n: 320, release: release}
	cfg := Config{Shots: 640, Seed: 7, Workers: 1, ShardShots: 64, DecodeTimeout: 250 * time.Millisecond}
	out := runEngine(context.Background(), newBlockRunner(cfg, c, bad, nil))
	if len(out.ShardErrors) != 1 {
		t.Fatalf("want one quarantined shard, got %+v", out.ShardErrors)
	}
	se := out.ShardErrors[0]
	if !se.Timeout {
		t.Fatalf("shard error not marked as a timeout: %+v", se)
	}
	if err, ok := se.PanicValue.(error); !ok || !errors.Is(err, ErrDecodeTimeout) {
		t.Fatalf("PanicValue does not wrap ErrDecodeTimeout: %v", se.PanicValue)
	}
	if se.FirstBlock != 5 || se.Blocks != 1 {
		t.Fatalf("quarantine coordinates wrong: %+v", se)
	}
	if msg := se.Error(); !strings.Contains(msg, "timed out") || !strings.Contains(msg, "seed=7 firstBlock=5") {
		t.Fatalf("timeout quarantine message lost its verb or repro: %q", msg)
	}
	if out.TimeoutBlocks != 1 || out.DegradedBlocks != 0 {
		t.Fatalf("timeout accounting wrong: timeout=%d degraded=%d", out.TimeoutBlocks, out.DegradedBlocks)
	}
	if out.Blocks != 5 || out.Shots != 320 {
		t.Fatalf("healthy prefix lost: blocks=%d shots=%d, want 5/320", out.Blocks, out.Shots)
	}
}

// Config.WrapDecoder must wrap both the primary decoder and every
// fallback the engine builds, through the public pipeline API.
func TestWrapDecoderSeesPrimaryAndFallback(t *testing.T) {
	code := hyper55(t)
	pl, err := NewPipeline(code, engineArch)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []DecoderKind
	cfg := Config{
		Code: code, Basis: css.Z, P: 5e-3, Shots: 320, Seed: 3,
		Decoder: FlaggedMWPM, Workers: 1, ShardShots: 64,
		Fallback: []DecoderKind{PlainMWPM},
		WrapDecoder: func(k DecoderKind, dec Decoder) Decoder {
			kinds = append(kinds, k)
			if k == FlaggedMWPM {
				return &panicOnCall{dec: dec, n: 0} // first shard panics → fallback built
			}
			return dec
		},
	}
	res, err := pl.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FallbackBlocks == 0 {
		t.Fatalf("wrapped primary never failed over: %+v", res)
	}
	want := []DecoderKind{FlaggedMWPM, PlainMWPM}
	if len(kinds) != len(want) || kinds[0] != want[0] || kinds[1] != want[1] {
		t.Fatalf("WrapDecoder saw kinds %v, want %v", kinds, want)
	}
}
