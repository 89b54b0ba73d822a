// Integration tests for the online decode service: bit-identity of
// committed corrections against the offline decode stack, deterministic
// shed/timeout/degraded accounting, drain semantics, and the admission
// and hung-client defenses. Everything runs over a real HTTP loopback
// (httptest) so the read/write deadline plumbing is exercised for real.
package rtd_test

import (
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/decoder"
	"github.com/fpn/flagproxy/internal/experiment"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/rtd"
	"github.com/fpn/flagproxy/internal/sim"
	"github.com/fpn/flagproxy/internal/surface"
)

var testArch = fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}

func testConfig(t testing.TB) (*css.Code, experiment.Config) {
	t.Helper()
	l, err := surface.Rotated(3)
	if err != nil {
		t.Fatal(err)
	}
	code := l.Code
	return code, experiment.Config{
		Code: code, Arch: testArch, Basis: css.Z, P: 5e-3, Seed: 11,
		Decoder: experiment.FlaggedMWPM,
	}
}

func newOnline(t testing.TB, mutate func(*experiment.Config)) *experiment.Online {
	t.Helper()
	code, cfg := testConfig(t)
	if mutate != nil {
		mutate(&cfg)
	}
	pl, err := experiment.NewPipeline(code, testArch)
	if err != nil {
		t.Fatal(err)
	}
	o, err := pl.NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// sampleWindows samples n shots of the serving circuit and converts them
// to per-window round frames plus the per-shot observable bits.
func sampleWindows(t testing.TB, o *experiment.Online, n int) ([][][]int, *sim.Result) {
	t.Helper()
	c := o.Circuit()
	blocks := (n + 63) / 64
	smp := sim.NewBlockSampler(c, blocks)
	if err := smp.Validate(0, n); err != nil {
		t.Fatal(err)
	}
	res := smp.Run(0, n, o.Config().Seed)
	return rtd.BuildWindows(c, res, 0, n), res
}

// offlineFlips decodes shot s of res on pd — the exact offline scalar
// path — and returns the committed flips.
func offlineFlips(t testing.TB, pd *experiment.PooledDecoder, res *sim.Result, s int) []int {
	t.Helper()
	var lanes decoder.Defects
	first := s &^ 63
	lanes.Extract(res, first, min(64, res.Shots-first))
	corr, err := pd.Decode(lanes.Lane(s - first))
	if err != nil {
		t.Fatal(err)
	}
	var flips []int
	for i, c := range corr {
		if c {
			flips = append(flips, i)
		}
	}
	return flips
}

func equalFlips(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func startServer(t testing.TB, opt rtd.Options) (*rtd.Server, *httptest.Server) {
	t.Helper()
	s, err := rtd.NewServer(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// The service's committed corrections must be bit-identical to what the
// offline decode stack produces for the same syndromes — the whole point
// of serving through the sweep engine's tail.
func TestOnlineStreamBitIdentityWithOffline(t *testing.T) {
	o := newOnline(t, nil)
	const shots = 64
	wins, res := sampleWindows(t, o, shots)
	s, ts := startServer(t, rtd.Options{Online: o})

	cl := &rtd.Client{URL: ts.URL}
	out, err := cl.Stream(context.Background(), o.Config().Fingerprint(), wins)
	if err != nil {
		t.Fatal(err)
	}
	if out.Fatal != "" || out.Drained {
		t.Fatalf("healthy stream ended badly: fatal=%q drained=%v", out.Fatal, out.Drained)
	}
	if len(out.Results) != shots {
		t.Fatalf("got %d results, want %d", len(out.Results), shots)
	}

	pd := o.Acquire()
	defer pd.Release()
	errs := 0
	for i, r := range out.Results {
		if r.Status != rtd.StatusOK || !r.Committed() {
			t.Fatalf("window %d: status %q, want ok", i, r.Status)
		}
		want := offlineFlips(t, pd, res, i)
		if !equalFlips(r.Flips, want) {
			t.Fatalf("window %d: online flips %v != offline flips %v", i, r.Flips, want)
		}
		// Residual logical error: committed correction vs true observables.
		flipped := map[int]bool{}
		for _, ob := range r.Flips {
			flipped[ob] = true
		}
		for ob := 0; ob < len(o.Circuit().Observables); ob++ {
			if res.ObservableBit(ob, i) != flipped[ob] {
				errs++
				break
			}
		}
	}
	if errs == 0 {
		t.Log("note: zero residual logical errors in this sample (fine at d=3, p=5e-3, 64 shots)")
	}

	st := s.Stats()
	rpw := int64(st.RoundsPerWindow)
	if st.RoundsReceived != shots*rpw || st.CommittedRounds != shots*rpw {
		t.Fatalf("rounds accounting: received %d committed %d, want %d each", st.RoundsReceived, st.CommittedRounds, shots*rpw)
	}
	if st.TimeoutRounds+st.DegradedRounds+st.ShedRounds+st.FailedRounds+st.DroppedRounds+st.DecodeErrors != 0 {
		t.Fatalf("healthy stream tripped degradation counters: %+v", st)
	}
	if st.Windows != shots || st.StreamsTorn != 0 || st.HungClients != 0 || st.Streams != 1 {
		t.Fatalf("stream accounting off: %+v", st)
	}
	if st.P50Ns <= 0 || st.P99Ns < st.P50Ns || st.P999Ns < st.P99Ns {
		t.Fatalf("latency quantiles not monotone positive: p50=%d p99=%d p999=%d", st.P50Ns, st.P99Ns, st.P999Ns)
	}
}

// gateDecoder blocks every decode until released, counting entries.
type gateDecoder struct {
	inner   experiment.Decoder
	release chan struct{}
	calls   atomic.Int64
}

func (g *gateDecoder) Decode(defects []int32) ([]bool, error) {
	g.calls.Add(1)
	<-g.release
	return g.inner.Decode(defects)
}

// With one worker wedged on window 0 and a queue of depth 2, windows 1
// and 2 queue and windows 3..5 are shed — deterministically, because the
// client paces: it sends window 0, waits for the worker to enter the
// decode, then sends the rest.
func TestQueueFullShedsDeterministically(t *testing.T) {
	gate := &gateDecoder{release: make(chan struct{})}
	o := newOnline(t, func(cfg *experiment.Config) {
		cfg.WrapDecoder = func(k experiment.DecoderKind, dec experiment.Decoder) experiment.Decoder {
			if k == experiment.FlaggedMWPM {
				gate.inner = dec
				return gate
			}
			return dec
		}
	})
	const shots = 6
	wins, _ := sampleWindows(t, o, shots)
	s, ts := startServer(t, rtd.Options{Online: o, Workers: 1, QueueDepth: 2})

	fp := o.Config().Fingerprint()
	frames, err := rtd.EncodeWindows(fp, wins)
	if err != nil {
		t.Fatal(err)
	}
	rpw := int64(s.Stats().RoundsPerWindow)
	// Frame layout: [0] header, then rpw frames per window, then trailer.
	win0End := 1 + int(rpw)

	pr, pw := io.Pipe()
	go func() {
		defer pw.Close()
		if _, err := pw.Write(rtd.JoinFrames(frames[:win0End])); err != nil {
			return
		}
		// Wait for the worker to wedge on window 0 so the queue is empty.
		for gate.calls.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		if _, err := pw.Write(rtd.JoinFrames(frames[win0End:])); err != nil {
			return
		}
		// Windows 1,2 now fill the queue and 3,4,5 shed as the reader
		// consumes them; release the gate once the sheds are on the books.
		for s.Stats().ShedRounds < 3*rpw {
			time.Sleep(time.Millisecond)
		}
		close(gate.release)
	}()

	cl := &rtd.Client{URL: ts.URL}
	out, err := cl.StreamBody(context.Background(), pr)
	if err != nil {
		t.Fatal(err)
	}
	if out.Fatal != "" {
		t.Fatalf("unexpected fatal: %q", out.Fatal)
	}
	if len(out.Results) != shots {
		t.Fatalf("got %d results, want %d", len(out.Results), shots)
	}
	for i, r := range out.Results {
		want := rtd.StatusOK
		if i >= 3 {
			want = rtd.StatusShed
		}
		if r.Status != want {
			t.Fatalf("window %d: status %q, want %q", i, r.Status, want)
		}
	}
	st := s.Stats()
	if st.ShedRounds != 3*rpw || st.CommittedRounds != 3*rpw || st.RoundsReceived != 6*rpw {
		t.Fatalf("shed accounting: %+v", st)
	}
}

// hungForever wedges every decode until the test ends: the decoder-stall
// fault. Under DecodeTimeout every window must degrade to the fallback.
type hungForever struct {
	release chan struct{}
}

func (h *hungForever) Decode([]int32) ([]bool, error) {
	<-h.release
	return nil, nil
}

func TestDecodeDeadlineDegradesToFallbackBitIdentical(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	o := newOnline(t, func(cfg *experiment.Config) {
		cfg.Fallback = []experiment.DecoderKind{experiment.PlainMWPM}
		cfg.DecodeTimeout = 30 * time.Millisecond
		cfg.WrapDecoder = func(k experiment.DecoderKind, dec experiment.Decoder) experiment.Decoder {
			if k == experiment.FlaggedMWPM {
				return &hungForever{release: release}
			}
			return dec
		}
	})
	const shots = 4
	wins, res := sampleWindows(t, o, shots)
	s, ts := startServer(t, rtd.Options{Online: o, Workers: 1})

	cl := &rtd.Client{URL: ts.URL}
	out, err := cl.Stream(context.Background(), o.Config().Fingerprint(), wins)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != shots {
		t.Fatalf("got %d results, want %d", len(out.Results), shots)
	}
	fd := o.AcquireFallback(experiment.PlainMWPM)
	if fd == nil {
		t.Fatal("plain-mwpm fallback pool not constructible")
	}
	defer fd.Release()
	for i, r := range out.Results {
		if r.Status != rtd.StatusDegraded || !r.Committed() {
			t.Fatalf("window %d: status %q, want degraded", i, r.Status)
		}
		if r.Decoder != experiment.PlainMWPM.String() {
			t.Fatalf("window %d: decoder %q, want %q", i, r.Decoder, experiment.PlainMWPM)
		}
		want := offlineFlips(t, fd, res, i)
		if !equalFlips(r.Flips, want) {
			t.Fatalf("window %d: degraded flips %v != offline fallback flips %v", i, r.Flips, want)
		}
	}
	st := s.Stats()
	rpw := int64(st.RoundsPerWindow)
	if st.TimeoutRounds != shots*rpw || st.DegradedRounds != shots*rpw || st.CommittedRounds != shots*rpw {
		t.Fatalf("degradation accounting: %+v", st)
	}
	if st.FailedRounds != 0 || st.ShedRounds != 0 {
		t.Fatalf("unexpected failures: %+v", st)
	}
}

// A chain with no constructible fallback must report the deadline verdict
// and count the rounds as failed, never silently committing nothing.
func TestDeadlineWithNoFallbackFails(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	o := newOnline(t, func(cfg *experiment.Config) {
		cfg.DecodeTimeout = 20 * time.Millisecond
		cfg.WrapDecoder = func(k experiment.DecoderKind, dec experiment.Decoder) experiment.Decoder {
			return &hungForever{release: release}
		}
	})
	wins, _ := sampleWindows(t, o, 1)
	s, ts := startServer(t, rtd.Options{Online: o, Workers: 1})

	cl := &rtd.Client{URL: ts.URL}
	out, err := cl.Stream(context.Background(), o.Config().Fingerprint(), wins)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].Status != rtd.StatusDeadline {
		t.Fatalf("want one deadline result, got %+v", out.Results)
	}
	st := s.Stats()
	rpw := int64(st.RoundsPerWindow)
	if st.TimeoutRounds != rpw || st.FailedRounds != rpw || st.CommittedRounds != 0 {
		t.Fatalf("deadline accounting: %+v", st)
	}
}

// Drain mid-stream: the window already received in full is decoded and
// flushed, the partial window's rounds are counted dropped, and the
// stream closes with a drained trailer — zero committed rounds lost.
func TestDrainFlushesInFlightWindows(t *testing.T) {
	o := newOnline(t, nil)
	wins, _ := sampleWindows(t, o, 2)
	s, ts := startServer(t, rtd.Options{Online: o})

	fp := o.Config().Fingerprint()
	frames, err := rtd.EncodeWindows(fp, wins)
	if err != nil {
		t.Fatal(err)
	}
	rpw := s.Stats().RoundsPerWindow
	// Send window 0 in full plus one round of window 1, then stall.
	head := rtd.JoinFrames(frames[:1+rpw+1])

	pr, pw := io.Pipe()
	outc := make(chan *rtd.StreamOutcome, 1)
	errc := make(chan error, 1)
	go func() {
		cl := &rtd.Client{URL: ts.URL}
		out, err := cl.StreamBody(context.Background(), pr)
		outc <- out
		errc <- err
	}()
	if _, err := pw.Write(head); err != nil {
		t.Fatal(err)
	}
	// Wait until window 0 is decoded and the partial round is on the books.
	for {
		st := s.Stats()
		if st.Windows >= 1 && st.RoundsReceived >= int64(rpw+1) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.Drain()
	out, err := <-outc, <-errc
	if err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if !out.Drained {
		t.Fatal("response trailer should carry the drained mark")
	}
	if len(out.Results) != 1 || out.Results[0].Status != rtd.StatusOK {
		t.Fatalf("window 0 should have been flushed: %+v", out.Results)
	}
	st := s.Stats()
	if !st.Draining {
		t.Fatal("stats should report draining")
	}
	if st.CommittedRounds != int64(rpw) || st.DroppedRounds != 1 {
		t.Fatalf("drain accounting: committed %d dropped %d, want %d and 1", st.CommittedRounds, st.DroppedRounds, rpw)
	}

	// Draining servers refuse new streams with 503.
	cl := &rtd.Client{URL: ts.URL}
	_, err = cl.Stream(context.Background(), fp, nil)
	var he *rtd.HTTPError
	if !errors.As(err, &he) || he.Code != 503 {
		t.Fatalf("post-drain stream: got %v, want HTTP 503", err)
	}
}

// A stream whose fingerprint does not match the serving config gets a
// fatal verdict naming both — mismatched binaries must not decode.
func TestFingerprintMismatchIsFatal(t *testing.T) {
	o := newOnline(t, nil)
	_, ts := startServer(t, rtd.Options{Online: o})
	cl := &rtd.Client{URL: ts.URL}
	out, err := cl.Stream(context.Background(), "bogus-fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Fatal, "fingerprint mismatch") {
		t.Fatalf("fatal = %q, want fingerprint mismatch", out.Fatal)
	}
}

// Out-of-order round frames tear the stream with an explicit verdict.
func TestOutOfOrderRoundIsTorn(t *testing.T) {
	o := newOnline(t, nil)
	wins, _ := sampleWindows(t, o, 2)
	s, ts := startServer(t, rtd.Options{Online: o})
	fp := o.Config().Fingerprint()
	frames, err := rtd.EncodeWindows(fp, wins)
	if err != nil {
		t.Fatal(err)
	}
	rpw := s.Stats().RoundsPerWindow
	// Swap the first rounds of windows 0 and 1.
	swapped := append([][]byte{}, frames...)
	swapped[1], swapped[1+rpw] = swapped[1+rpw], swapped[1]
	cl := &rtd.Client{URL: ts.URL}
	out, err := cl.StreamBody(context.Background(), strings.NewReader(string(rtd.JoinFrames(swapped))))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Fatal, "out-of-order frame") {
		t.Fatalf("fatal = %q, want out-of-order verdict", out.Fatal)
	}
	if st := s.Stats(); st.StreamsTorn != 1 {
		t.Fatalf("StreamsTorn = %d, want 1", st.StreamsTorn)
	}
}

// Admission control: with one stream slot held open, the next request is
// refused immediately with 429 and counted.
func TestAdmissionControlSheds(t *testing.T) {
	o := newOnline(t, nil)
	s, ts := startServer(t, rtd.Options{Online: o, MaxStreams: 1})
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		cl := &rtd.Client{URL: ts.URL}
		_, _ = cl.StreamBody(context.Background(), pr)
	}()
	// Wait for the first stream to occupy the slot.
	for s.Stats().Streams == 0 {
		time.Sleep(time.Millisecond)
	}
	cl := &rtd.Client{URL: ts.URL}
	_, err := cl.Stream(context.Background(), o.Config().Fingerprint(), nil)
	var he *rtd.HTTPError
	if !errors.As(err, &he) || he.Code != 429 {
		t.Fatalf("second stream: got %v, want HTTP 429", err)
	}
	if st := s.Stats(); st.StreamsShed != 1 {
		t.Fatalf("StreamsShed = %d, want 1", st.StreamsShed)
	}
	pw.Close()
	<-done
}

// A client that goes silent mid-stream trips the read deadline: its
// completed windows are still flushed, the stream is closed with a hung
// verdict, and the slot is reclaimed.
func TestHungClientReclaimed(t *testing.T) {
	o := newOnline(t, nil)
	wins, _ := sampleWindows(t, o, 1)
	s, ts := startServer(t, rtd.Options{Online: o, ReadTimeout: 100 * time.Millisecond})
	fp := o.Config().Fingerprint()
	frames, err := rtd.EncodeWindows(fp, wins)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	go func() {
		// Header and the full window, but never the trailer.
		_, _ = pw.Write(rtd.JoinFrames(frames[:len(frames)-1]))
		// Keep the pipe open: silence, not EOF.
	}()
	cl := &rtd.Client{URL: ts.URL}
	out, err := cl.StreamBody(context.Background(), pr)
	if err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if !strings.Contains(out.Fatal, "hung client") {
		t.Fatalf("fatal = %q, want hung-client verdict", out.Fatal)
	}
	if len(out.Results) != 1 || out.Results[0].Status != rtd.StatusOK {
		t.Fatalf("completed window should still be flushed: %+v", out.Results)
	}
	st := s.Stats()
	if st.HungClients != 1 || st.StreamsTorn != 0 {
		t.Fatalf("hung accounting: %+v", st)
	}
}
