// Wire-codec golden pin (the cross-machine analogue of the experiment
// package's fingerprint golden): a Config serialized into the
// coordinator's JSON shard-plan and parsed back on a "worker" must
// yield the identical fingerprint and the identical seedmix streams —
// PointSeed per sweep point and the engine's per-block seed derivation
// — byte for byte. Any drift here silently splits a distributed sweep
// into two different experiments, so it must show up as a golden-file
// diff in review, never at merge time.
package fabric

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fpn/flagproxy/internal/catalog"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/experiment"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/rtd"
	"github.com/fpn/flagproxy/internal/schedule"
	"github.com/fpn/flagproxy/internal/seedmix"
	"github.com/fpn/flagproxy/internal/surface"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fingerprints.golden")

type wireGoldenCase struct {
	name string
	cfg  experiment.Config
}

func wireGoldenCases(t *testing.T) []wireGoldenCase {
	t.Helper()
	arch := fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}
	l3, err := surface.Rotated(3)
	if err != nil {
		t.Fatal(err)
	}
	canonSched, _, err := schedule.CanonicalRotated(l3)
	if err != nil {
		t.Fatal(err)
	}
	base := experiment.Config{
		Code: l3.Code, Arch: arch, Basis: css.Z, Rounds: 3,
		P: 1e-3, Shots: 10000, Seed: 7, Decoder: experiment.FlaggedMWPM,
	}
	canonical := base
	canonical.Schedule, canonical.Arch = canonSched, fpn.Options{}
	earlyStop := base
	earlyStop.Basis, earlyStop.Seed, earlyStop.Decoder = css.X, 9, experiment.BPOSD
	earlyStop.TargetErrors, earlyStop.MaxCI = 100, 0.01
	codeCap := base
	codeCap.CodeCapacity, codeCap.FixedIdle, codeCap.Decoder = true, true, experiment.PlainMWPM
	codeCap.Rounds = 0 // pre-normalization zero must survive the wire verbatim
	cases := []wireGoldenCase{
		{"rotated3-z-greedy", base},
		{"rotated3-z-canonical-sched", canonical},
		{"rotated3-x-bposd-earlystop", earlyStop},
		{"rotated3-codecap-rounds0", codeCap},
	}
	// Smallest catalogued color code: exercises the Color fields of the
	// check codec and the css.New reconstruction path (entries are
	// sorted by N, so the first color hit is the smallest).
	for _, e := range catalog.Standard() {
		if e.Family == "color" {
			cc := base
			cc.Code, cc.Decoder, cc.Seed = e.Code, experiment.FlaggedRestriction, 13
			cases = append(cases, wireGoldenCase{fmt.Sprintf("color%d-flagged-restriction", e.Code.N), cc})
			break
		}
	}
	return cases
}

// roundTrip pushes cfg through the full wire path — struct → JSON bytes
// → struct → Config — exactly as coordinator and worker do.
func roundTrip(t *testing.T, cfg experiment.Config) experiment.Config {
	t.Helper()
	w, err := MarshalConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var w2 WireConfig
	if err := json.Unmarshal(data, &w2); err != nil {
		t.Fatal(err)
	}
	rt, err := w2.Config()
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestWireGoldenFingerprintsAndSeeds(t *testing.T) {
	var buf strings.Builder
	for _, c := range wireGoldenCases(t) {
		rt := roundTrip(t, c.cfg)
		fpOrig, fpWire := c.cfg.Fingerprint(), rt.Fingerprint()
		if fpWire != fpOrig {
			t.Errorf("%s: fingerprint changed across the wire: %s -> %s", c.name, fpOrig, fpWire)
		}
		// The sweep-point seed and the engine's per-block seed stream
		// must be derivable identically on both sides of the wire.
		ps := experiment.PointSeed(rt.Seed, "fig19", rt.Decoder, rt.Basis, rt.P)
		if want := experiment.PointSeed(c.cfg.Seed, "fig19", c.cfg.Decoder, c.cfg.Basis, c.cfg.P); ps != want {
			t.Errorf("%s: PointSeed changed across the wire: %d -> %d", c.name, want, ps)
		}
		fmt.Fprintf(&buf, "%s %s point=%d", c.name, fpOrig, ps)
		for b := 0; b < 4; b++ {
			blockSeed := seedmix.Derive(rt.Seed, uint64(b))
			if want := seedmix.Derive(c.cfg.Seed, uint64(b)); blockSeed != want {
				t.Errorf("%s: block %d seed changed across the wire: %d -> %d", c.name, b, want, blockSeed)
			}
			fmt.Fprintf(&buf, " b%d=%d", b, blockSeed)
		}
		fmt.Fprintln(&buf)
	}
	got := buf.String()

	path := filepath.Join("testdata", "fingerprints.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden wire fingerprints (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("wire fingerprints drifted from %s:\ngot:\n%swant:\n%s"+
			"an intended codec change must be proven fingerprint-preserving and regenerated with -update",
			path, got, want)
	}
}

// TestWireProtocolGolden pins the byte encodings that PR 10 added to
// the wire: epoch-fenced job/lease/ack/status messages, the CRC-framed
// completion stream, and the rtd resume handshake (header with stream
// id + start window, resume answer). A partitioned stale coordinator is
// fenced *by these exact bytes*; any drift must surface as a golden
// diff in review, never as a silent cross-version split at merge time.
func TestWireProtocolGolden(t *testing.T) {
	var buf strings.Builder
	pin := func(name string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s %s\n", name, data)
	}
	pin("job-running", jobMsg{Status: "running", Fingerprint: "fp-cafe", LeaseTTLMs: 15000, Epoch: 3})
	pin("lease-granted", leaseMsg{Status: "lease", Lease: 42, Shard: 7, FirstBlock: 7, Blocks: 1, Epoch: 3})
	pin("lease-fallback", leaseMsg{Status: "lease", Lease: 43, Shard: 2, FirstBlock: 2, Blocks: 1, Epoch: 3, Fallback: true})
	pin("ack-ok", ackMsg{Status: "ok", Epoch: 3})
	pin("ack-stale-epoch", ackMsg{Status: statusStaleEpoch, Epoch: 3})
	pin("status", statusMsg{
		Status: "running", Epoch: 3, Fingerprint: "fp-cafe", ShardsTotal: 10, ShardsDone: 4,
		Quarantined: 1, StaleEpochRejects: 2, LeaseReassigns: 5, FallbackRetries: 1, Failovers: 1,
	})

	var comp strings.Builder
	if err := writeCounts(&comp, 7, []int{0, 3, 1}); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "completion-frames %q\n", comp.String())

	seg, err := rtd.EncodeWindowsAt("fp-cafe", "stream-9", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "rtd-resume-header %q\n", seg[0])
	pin("rtd-resume-known", rtd.ResumeInfo{Status: rtd.ResumeKnown, NextWindow: 4, Replay: []rtd.Result{{Window: 3, Status: rtd.StatusOK, Decoder: "flagged-mwpm", Flips: []int{1, 5}}}})
	pin("rtd-resume-unknown", rtd.ResumeInfo{Status: rtd.ResumeUnknown})
	got := buf.String()

	path := filepath.Join("testdata", "protocol.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden protocol frames (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("wire protocol drifted from %s:\ngot:\n%swant:\n%s"+
			"an intended protocol change must be shown compatible (or fenced by epoch/version) and regenerated with -update",
			path, got, want)
	}
}

// The codec must also reject what it cannot represent, loudly.
func TestWireRejectsUnrepresentable(t *testing.T) {
	cfg := wireGoldenCases(t)[0].cfg
	cfg.WrapDecoder = func(_ experiment.DecoderKind, d experiment.Decoder) experiment.Decoder { return d }
	if _, err := MarshalConfig(cfg); err == nil {
		t.Error("WrapDecoder crossed the wire")
	}
	var w WireConfig
	data, err := json.Marshal(mustWire(t, wireGoldenCases(t)[0].cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	w.Decoder = "nonexistent-decoder"
	if _, err := w.Config(); err == nil {
		t.Error("unknown decoder name accepted")
	}
}

func mustWire(t *testing.T, cfg experiment.Config) *WireConfig {
	t.Helper()
	w, err := MarshalConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
