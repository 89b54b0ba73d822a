package experiment

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// A shard no rung can decode comes back from BlockRunner as a
// *ShardError with the run's (seed, firstBlock) repro, whether the
// primary panicked (CountBlocks) or the fallback chain did too
// (RescueBlocks).
func TestBlockRunnerFailuresAreShardErrors(t *testing.T) {
	c, dec := crashWorkload(t, 2e-3)
	const seed, first = int64(13), 3
	mk := func(DecoderKind) (Decoder, error) { return &panicOnCall{dec: dec, n: 0}, nil }
	cfg := Config{Shots: 640, Seed: seed, Fallback: []DecoderKind{PlainMWPM}}
	r := newBlockRunner(cfg, c, &panicOnCall{dec: dec, n: 0}, mk)
	check := func(name string, err error, wantDec DecoderKind) {
		t.Helper()
		var se *ShardError
		if !errors.As(err, &se) {
			t.Fatalf("%s: error %v is not a *ShardError", name, err)
		}
		if se.Seed != seed || se.FirstBlock != first || se.Blocks != 2 || se.Decoder != wantDec.String() {
			t.Errorf("%s: ShardError = %+v, want seed %d, blocks %d+2, decoder %s", name, se, seed, first, wantDec)
		}
		if !strings.Contains(se.Error(), fmt.Sprintf("seed=%d firstBlock=%d", seed, first)) || len(se.Stack) == 0 {
			t.Errorf("%s: ShardError lost its repro or stack: %q", name, se.Error())
		}
	}
	counts, err := r.CountBlocks(context.Background(), first, 2)
	if counts != nil {
		t.Errorf("CountBlocks returned counts %v with its error", counts)
	}
	check("CountBlocks", err, FlaggedMWPM)
	_, _, err = r.RescueBlocks(context.Background(), first, 2)
	check("RescueBlocks", err, PlainMWPM)
}
