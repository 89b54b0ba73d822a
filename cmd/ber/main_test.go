package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/fpn/flagproxy/internal/checkpoint"
	"github.com/fpn/flagproxy/internal/experiment"
)

func TestParseArgsDefaults(t *testing.T) {
	cfg, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.fig != "19" || cfg.shots != 2000 || cfg.seed != 1 || cfg.maxN != 64 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if len(cfg.ps) != 2 || cfg.ps[0] != 5e-4 || cfg.ps[1] != 1e-3 {
		t.Errorf("default -ps parsed as %v", cfg.ps)
	}
	if cfg.workers != 0 || cfg.shard != 0 || cfg.targetErrors != 0 || cfg.maxCI != 0 {
		t.Errorf("engine knobs should default to 0: %+v", cfg)
	}
}

func TestParseArgsValid(t *testing.T) {
	cfg, err := parseArgs([]string{
		"-fig", "17", "-shots", "50000", "-seed", "7",
		"-ps", " 1e-3 ,2e-3,5e-3", "-maxn", "160",
		"-workers", "4", "-shard", "4096",
		"-target-errors", "100", "-max-ci", "0.02",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.fig != "17" || cfg.shots != 50000 || cfg.seed != 7 || cfg.maxN != 160 ||
		cfg.workers != 4 || cfg.shard != 4096 || cfg.targetErrors != 100 ||
		math.Abs(cfg.maxCI-0.02) > 1e-15 {
		t.Errorf("parsed %+v", cfg)
	}
	want := []float64{1e-3, 2e-3, 5e-3}
	if len(cfg.ps) != len(want) {
		t.Fatalf("-ps parsed as %v", cfg.ps)
	}
	for i, p := range want {
		if cfg.ps[i] != p {
			t.Errorf("-ps[%d] = %g, want %g", i, cfg.ps[i], p)
		}
	}
}

func TestParseArgsInvalid(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"unknown fig", []string{"-fig", "21"}, "unknown figure"},
		{"fig garbage", []string{"-fig", "nineteen"}, "unknown figure"},
		{"zero shots", []string{"-shots", "0"}, "-shots must be positive"},
		{"negative shots", []string{"-shots", "-5"}, "-shots must be positive"},
		{"zero maxn", []string{"-maxn", "0"}, "-maxn must be positive"},
		{"negative workers", []string{"-workers", "-1"}, "-workers must be >= 0"},
		{"negative shard", []string{"-shard", "-64"}, "-shard must be >= 0"},
		{"negative target-errors", []string{"-target-errors", "-2"}, "-target-errors must be >= 0"},
		{"negative max-ci", []string{"-max-ci", "-0.1"}, "-max-ci must be in [0, 1)"},
		{"max-ci at one", []string{"-max-ci", "1"}, "-max-ci must be in [0, 1)"},
		{"unparsable ps", []string{"-ps", "1e-3,banana"}, "bad -ps entry"},
		{"empty ps entry", []string{"-ps", "1e-3,,2e-3"}, "bad -ps entry"},
		{"ps zero", []string{"-ps", "0"}, "not a physical error rate"},
		{"ps at one", []string{"-ps", "1"}, "not a physical error rate"},
		{"ps negative", []string{"-ps", "-1e-3"}, "not a physical error rate"},
		{"non-integer workers", []string{"-workers", "two"}, "invalid value"},
		{"negative decode-timeout", []string{"-decode-timeout", "-1s"}, "-decode-timeout must be >= 0"},
		{"unknown fallback kind", []string{"-fallback", "mwpm"}, "unknown decoder kind"},
		{"fallback typo", []string{"-fallback", "plain-mwpm,bposd"}, "unknown decoder kind"},
		{"unknown flag", []string{"-frobnicate"}, "flag provided but not defined"},
		{"serve and join", []string{"-serve", ":9911", "-join", "http://h:9911"}, "mutually exclusive"},
		{"join with checkpoint", []string{"-join", "http://h:9911", "-checkpoint", "/tmp/c"}, "coordinator owns the ledger"},
		{"join with resume", []string{"-join", "http://h:9911", "-checkpoint", "/tmp/c", "-resume"}, "coordinator owns the ledger"},
		{"join with decode-timeout", []string{"-join", "http://h:9911", "-decode-timeout", "5s"}, "workers decode without a deadline"},
		{"serve with decode-timeout", []string{"-serve", ":9911", "-decode-timeout", "5s"}, "do not cross the fabric"},
		{"serve with fallback", []string{"-serve", ":9911", "-fallback", "plain-mwpm"}, "do not cross the fabric"},
		{"zero lease-ttl", []string{"-serve", ":9911", "-lease-ttl", "0s"}, "-lease-ttl must be positive"},
		{"negative linger", []string{"-serve", ":9911", "-linger", "-1s"}, "-linger must be >= 0"},
		{"empty join entry", []string{"-join", "http://a:1,,http://b:2"}, "empty address"},
		{"negative max-retries", []string{"-join", "http://h:9911", "-max-retries", "-1"}, "-max-retries must be >= 0"},
		{"max-retries without join", []string{"-max-retries", "5"}, "only applies to -join"},
		{"standby without serve", []string{"-standby-of", "http://h:9911", "-checkpoint", "/tmp/c", "-resume"}, "requires -serve"},
		{"standby without ledger", []string{"-serve", ":9912", "-standby-of", "http://h:9911"}, "requires -checkpoint and -resume"},
		{"standby without resume", []string{"-serve", ":9912", "-standby-of", "http://h:9911", "-checkpoint", "/tmp/c"}, "requires -checkpoint and -resume"},
		{"zero standby-probe", []string{"-serve", ":9912", "-standby-of", "http://h:9911", "-checkpoint", "/tmp/c", "-resume", "-standby-probe", "0s"}, "-standby-probe must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseArgs(tc.args)
			if err == nil {
				t.Fatalf("parseArgs(%v) accepted invalid input", tc.args)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseArgs(%v) error %q, want it to mention %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

func TestParseArgsCheckpointFlags(t *testing.T) {
	cfg, err := parseArgs([]string{"-checkpoint", "/tmp/ckpt", "-resume"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.checkpointDir != "/tmp/ckpt" || !cfg.resume {
		t.Errorf("checkpoint flags parsed as %+v", cfg)
	}
	// -checkpoint alone (fresh sweep, record as you go) is legal.
	cfg, err = parseArgs([]string{"-checkpoint", "/tmp/ckpt"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.checkpointDir != "/tmp/ckpt" || cfg.resume {
		t.Errorf("checkpoint-only parsed as %+v", cfg)
	}
}

func TestParseArgsFabricFlags(t *testing.T) {
	cfg, err := parseArgs([]string{"-serve", "127.0.0.1:0", "-checkpoint", "/tmp/c", "-resume", "-lease-ttl", "5s", "-linger", "100ms"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.serveAddr != "127.0.0.1:0" || cfg.leaseTTL != 5*time.Second || cfg.linger != 100*time.Millisecond {
		t.Errorf("serve flags parsed as %+v", cfg)
	}
	cfg, err = parseArgs([]string{"-join", "http://host:9911", "-worker-id", "w7"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.joinURLs) != 1 || cfg.joinURLs[0] != "http://host:9911" || cfg.workerID != "w7" {
		t.Errorf("join flags parsed as %+v", cfg)
	}
	if cfg.leaseTTL != 30*time.Second || cfg.linger != 2*time.Second {
		t.Errorf("fabric duration defaults parsed as %+v", cfg)
	}
	// A comma-separated -join is a failover list: primary first, then
	// standbys, whitespace-tolerant like -ps and -fallback.
	cfg, err = parseArgs([]string{"-join", "http://a:9911, http://b:9912 ,http://c:9913", "-max-retries", "7"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a:9911", "http://b:9912", "http://c:9913"}
	if len(cfg.joinURLs) != len(want) {
		t.Fatalf("-join list parsed as %v", cfg.joinURLs)
	}
	for i, u := range want {
		if cfg.joinURLs[i] != u {
			t.Errorf("-join[%d] = %q, want %q", i, cfg.joinURLs[i], u)
		}
	}
	if cfg.maxRetries != 7 {
		t.Errorf("-max-retries parsed as %d, want 7", cfg.maxRetries)
	}
}

func TestParseArgsStandbyFlags(t *testing.T) {
	cfg, err := parseArgs([]string{
		"-serve", "127.0.0.1:0", "-checkpoint", "/tmp/c", "-resume",
		"-standby-of", "http://primary:9911", "-standby-probe", "250ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.standbyOf != "http://primary:9911" || cfg.standbyProbe != 250*time.Millisecond {
		t.Errorf("standby flags parsed as %+v", cfg)
	}
	// The probe cadence defaults on and the standby defaults off.
	cfg, err = parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.standbyOf != "" || cfg.standbyProbe != 500*time.Millisecond {
		t.Errorf("standby defaults parsed as %+v", cfg)
	}
}

func TestParseArgsDeadlineFlags(t *testing.T) {
	cfg, err := parseArgs([]string{"-decode-timeout", "30s", "-fallback", " plain-mwpm , bp-osd"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.decTimeout != 30*time.Second {
		t.Errorf("-decode-timeout parsed as %v, want 30s", cfg.decTimeout)
	}
	want := []experiment.DecoderKind{experiment.PlainMWPM, experiment.BPOSD}
	if len(cfg.fallback) != len(want) {
		t.Fatalf("-fallback parsed as %v", cfg.fallback)
	}
	for i, k := range want {
		if cfg.fallback[i] != k {
			t.Errorf("-fallback[%d] = %v, want %v", i, cfg.fallback[i], k)
		}
	}
	// Both knobs default to off.
	cfg, err = parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.decTimeout != 0 || cfg.fallback != nil {
		t.Errorf("deadline knobs should default to off: timeout=%v fallback=%v", cfg.decTimeout, cfg.fallback)
	}
}

func TestParseArgsResumeRequiresCheckpoint(t *testing.T) {
	_, err := parseArgs([]string{"-resume"})
	if err == nil {
		t.Fatal("-resume without -checkpoint was accepted")
	}
	if !strings.Contains(err.Error(), "-checkpoint") {
		t.Errorf("error %q should point at the missing -checkpoint flag", err)
	}
}

func TestSchedSignature(t *testing.T) {
	if got := schedSignature(0, nil); got != "decode-timeout=0s fallback=none" {
		t.Errorf("zero knobs: %q", got)
	}
	got := schedSignature(2*time.Second, []experiment.DecoderKind{experiment.PlainMWPM, experiment.BPOSD})
	if got != "decode-timeout=2s fallback=plain-mwpm,bp-osd" {
		t.Errorf("populated knobs: %q", got)
	}
	// The signature must be a pure function of the knobs (it is compared
	// as a string across processes).
	if got != schedSignature(2*time.Second, []experiment.DecoderKind{experiment.PlainMWPM, experiment.BPOSD}) {
		t.Error("signature is not stable")
	}
}

// A resumed sweep with different -decode-timeout/-fallback must warn
// loudly, and the store must end up holding the new signature; matching
// knobs must stay silent.
func TestRecordSchedKnobsWarnsOnMismatch(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	sig1 := schedSignature(0, nil)
	recordSchedKnobs(store, sig1, &buf)
	if buf.Len() != 0 {
		t.Fatalf("first recording warned: %q", buf.String())
	}
	recordSchedKnobs(store, sig1, &buf)
	if buf.Len() != 0 {
		t.Fatalf("matching knobs warned: %q", buf.String())
	}
	sig2 := schedSignature(5*time.Second, []experiment.DecoderKind{experiment.PlainMWPM})
	recordSchedKnobs(store, sig2, &buf)
	out := buf.String()
	if !strings.Contains(out, "WARNING") || !strings.Contains(out, sig1) || !strings.Contains(out, sig2) {
		t.Fatalf("mismatch warning missing or incomplete:\n%s", out)
	}
	// The warning and the new signature survive a reopen (a second
	// resume under the new knobs is silent again).
	store2, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := store2.Meta("sched"); !ok || v != sig2 {
		t.Fatalf("store holds %q (ok=%v), want the latest signature %q", v, ok, sig2)
	}
	var buf2 strings.Builder
	recordSchedKnobs(store2, sig2, &buf2)
	if buf2.Len() != 0 {
		t.Fatalf("re-resume with matching knobs warned: %q", buf2.String())
	}
}
