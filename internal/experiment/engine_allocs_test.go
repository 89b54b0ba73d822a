//go:build !race

package experiment

// Under the race detector allocation counts include the detector's own
// bookkeeping, so the gate below only builds without it.

import (
	"context"
	"testing"
)

// TestEngineAllocsDoNotScaleWithShards pins that each engine worker
// reuses one sampler and one counts buffer across all the shards it
// claims: a run cut into sixteen times as many shards may allocate at
// most one more object per extra shard. Rebuilding either per shard
// would add several.
func TestEngineAllocsDoNotScaleWithShards(t *testing.T) {
	c, dec := benchWorkload(t)
	allocs := func(shards int) float64 {
		cfg := Config{Shots: shards * blockShots, Seed: 1, Workers: 1, ShardShots: blockShots}
		return testing.AllocsPerRun(3, func() {
			runEngine(context.Background(), newBlockRunner(cfg, c, dec, nil))
		})
	}
	const few, many = 16, 256
	a, b := allocs(few), allocs(many)
	t.Logf("allocs/run: %d shards %.0f, %d shards %.0f (%.2f per extra shard)", few, a, many, b, (b-a)/(many-few))
	if b-a > many-few {
		t.Errorf("engine allocations scale with shards: %.0f allocs at %d shards, %.0f at %d (%.2f per extra shard, want <= 1)",
			a, few, b, many, (b-a)/(many-few))
	}
}
