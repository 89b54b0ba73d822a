package experiment

import (
	"runtime"
	"testing"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/fpn"
)

var engineArch = fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}

// The engine's core contract: (config, seed) determines LogicalErrors
// bit-identically for any worker count, any shard size and any
// GOMAXPROCS, including a shot count that is not a multiple of the
// 64-shot block.
func TestShardedDeterminism(t *testing.T) {
	code := hyper55(t)
	pl, err := NewPipeline(code, engineArch)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Code: code, Basis: css.Z, P: 2e-3, Shots: 1000, Seed: 7,
		Decoder: FlaggedMWPM,
	}
	var want *Result
	for _, workers := range []int{1, 4} {
		for _, shard := range []int{64, 1024} {
			cfg := base
			cfg.Workers = workers
			cfg.ShardShots = shard
			res, err := pl.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Shots != base.Shots {
				t.Fatalf("workers=%d shard=%d: committed %d shots, want %d", workers, shard, res.Shots, base.Shots)
			}
			if want == nil {
				want = res
				if res.LogicalErrors == 0 {
					t.Fatal("no logical errors at p=2e-3; determinism check would be vacuous")
				}
				continue
			}
			if res.LogicalErrors != want.LogicalErrors {
				t.Errorf("workers=%d shard=%d: %d logical errors, want %d",
					workers, shard, res.LogicalErrors, want.LogicalErrors)
			}
		}
	}
	// Defaulted workers follow GOMAXPROCS; the result must not.
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		cfg := base // Workers == 0, ShardShots == 0: all defaults
		res, err := pl.Run(cfg)
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatal(err)
		}
		if res.LogicalErrors != want.LogicalErrors {
			t.Errorf("GOMAXPROCS=%d: %d logical errors, want %d", procs, res.LogicalErrors, want.LogicalErrors)
		}
	}
}

// Regression: Shots <= 0 used to launch zero workers and report
// BER = 0/0 = NaN; it must be rejected up front.
func TestRunRejectsNonPositiveShots(t *testing.T) {
	code := hyper55(t)
	for _, shots := range []int{0, -5} {
		_, err := Run(Config{Code: code, Arch: engineArch, Basis: css.Z, P: 1e-3, Shots: shots, Decoder: FlaggedMWPM})
		if err == nil {
			t.Fatalf("Shots=%d: expected an error, got none", shots)
		}
	}
}

// Regression: a code without logical qubits (k = 0) used to yield
// BERNorm = BER/0 = ±Inf/NaN; it must be rejected with a clear error.
func TestRunRejectsZeroK(t *testing.T) {
	checks := []css.Check{
		{Basis: css.X, Support: []int{0, 1}, Color: -1},
		{Basis: css.Z, Support: []int{0, 1}, Color: -1},
	}
	code, err := css.New("k0", "test", 2, checks)
	if err != nil {
		t.Fatal(err)
	}
	if code.K != 0 {
		t.Fatalf("test code has k=%d, want 0", code.K)
	}
	_, err = Run(Config{Code: code, Basis: css.Z, P: 1e-3, Shots: 100, Rounds: 1, Decoder: FlaggedMWPM})
	if err == nil {
		t.Fatal("expected an error for a k=0 code, got none")
	}
}

// Early stopping must halt a high-error point before exhausting Shots,
// and the stop point must be deterministic across worker counts.
func TestEarlyStopTargetErrors(t *testing.T) {
	code := hyper55(t)
	pl, err := NewPipeline(code, engineArch)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Code: code, Basis: css.Z, P: 1e-2, Shots: 100000, Seed: 11,
		Decoder: FlaggedMWPM, TargetErrors: 20, ShardShots: 64,
	}
	var want *Result
	for _, workers := range []int{1, 4} {
		cfg := base
		cfg.Workers = workers
		res, err := pl.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.EarlyStopped || res.Shots >= base.Shots {
			t.Fatalf("workers=%d: expected early stop before %d shots, got %d (stopped=%v)",
				workers, base.Shots, res.Shots, res.EarlyStopped)
		}
		if res.LogicalErrors < base.TargetErrors {
			t.Fatalf("workers=%d: stopped with %d errors, target %d", workers, res.LogicalErrors, base.TargetErrors)
		}
		if want == nil {
			want = res
		} else if res.Shots != want.Shots || res.LogicalErrors != want.LogicalErrors {
			t.Fatalf("early stop not deterministic: (%d/%d) vs (%d/%d)",
				res.LogicalErrors, res.Shots, want.LogicalErrors, want.Shots)
		}
		t.Logf("workers=%d: stopped at %d/%d shots with %d errors", workers, res.Shots, base.Shots, res.LogicalErrors)
	}
}

// The CI criterion stops a high-error point once the estimate is tight
// enough, but never fires before the first committed logical error.
func TestEarlyStopMaxCI(t *testing.T) {
	code := hyper55(t)
	res, err := Run(Config{
		Code: code, Arch: engineArch, Basis: css.Z, P: 1e-2, Shots: 100000,
		Seed: 13, Decoder: FlaggedMWPM, MaxCI: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.EarlyStopped || res.Shots >= 100000 {
		t.Fatalf("expected CI early stop, got %d shots (stopped=%v)", res.Shots, res.EarlyStopped)
	}
	if res.LogicalErrors == 0 {
		t.Fatal("CI stop fired with zero committed errors")
	}
	if half := (res.CIHigh - res.CILow) / 2; half > 0.05 {
		t.Fatalf("stopped with CI half-width %.4f > 0.05", half)
	}
}

// Per-point seed derivation: every (figure, decoder, basis, p) point of
// a sweep must get its own seed, none of them equal to the base seed.
func TestPointSeedDistinct(t *testing.T) {
	const base = int64(1)
	seen := map[int64]string{}
	for _, fig := range []string{"fig17:hysc-30", "fig19:hysc-30", "fig19:other"} {
		for _, dec := range []DecoderKind{FlaggedMWPM, PlainMWPM} {
			for _, basis := range []css.Basis{css.X, css.Z} {
				for _, p := range []float64{5e-4, 1e-3} {
					s := PointSeed(base, fig, dec, basis, p)
					id := fig + dec.String() + string(basis)
					if s == base {
						t.Fatalf("point %s p=%g derived the base seed verbatim", id, p)
					}
					if prev, dup := seen[s]; dup {
						t.Fatalf("seed collision between %s and %s", prev, id)
					}
					seen[s] = id
				}
			}
		}
	}
	if s := PointSeed(base, "fig19:hysc-30", FlaggedMWPM, css.Z, 1e-3); s != PointSeed(base, "fig19:hysc-30", FlaggedMWPM, css.Z, 1e-3) {
		t.Fatalf("PointSeed is not deterministic: %d vs %d", s, s)
	}
}

// Config validation must reject out-of-range engine knobs.
func TestValidateEngineKnobs(t *testing.T) {
	code := hyper55(t)
	base := Config{Code: code, Arch: engineArch, Basis: css.Z, P: 1e-3, Shots: 100, Decoder: FlaggedMWPM}
	for name, mut := range map[string]func(*Config){
		"negative-target": func(c *Config) { c.TargetErrors = -1 },
		"negative-ci":     func(c *Config) { c.MaxCI = -0.1 },
		"ci-too-large":    func(c *Config) { c.MaxCI = 1 },
		"negative-shard":  func(c *Config) { c.ShardShots = -64 },
		"negative-worker": func(c *Config) { c.Workers = -2 },
	} {
		cfg := base
		mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected a validation error", name)
		}
	}
}

// A Sweep must hand every point of a (code, arch) pair the same cached
// pipeline, and still produce the same result as a cold Run.
func TestSweepCachesPipelines(t *testing.T) {
	code := hyper55(t)
	sw := NewSweep()
	cfg := Config{Code: code, Arch: engineArch, Basis: css.Z, P: 2e-3, Shots: 200, Seed: 5, Decoder: FlaggedMWPM}
	warm1, err := sw.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.P = 1e-3
	if _, err := sw.Run(cfg2); err != nil {
		t.Fatal(err)
	}
	if len(sw.pipes) != 1 {
		t.Fatalf("sweep built %d pipelines for one (code, arch) pair", len(sw.pipes))
	}
	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.LogicalErrors != warm1.LogicalErrors {
		t.Fatalf("cached pipeline changed the result: %d vs %d", warm1.LogicalErrors, cold.LogicalErrors)
	}
}

// At a physical rate near 1e-17 the sampler's geometric skip exceeds
// every int. The run must still commit every shot, with no shard
// quarantined for a wrapped lane index.
func TestRunTinyPhysicalRate(t *testing.T) {
	cfg := Config{
		Code: rotatedCode(t, 3), Basis: css.Z, Rounds: 3, P: 1e-17,
		Shots: 4096, Seed: 1, Decoder: PlainMWPM, Workers: 2,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ShardErrors) != 0 {
		t.Fatalf("%d shard errors, first: %v", len(res.ShardErrors), res.ShardErrors[0].Error())
	}
	if res.Shots != cfg.Shots {
		t.Fatalf("committed %d shots, want %d", res.Shots, cfg.Shots)
	}
}
