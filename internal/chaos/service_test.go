// Service fault plans: one rtd server takes a healthy stream, then a
// torn stream, a mid-stream disconnect and a hung client, and the final
// counter snapshot must match a golden computed from the plan — every
// shed, torn, hung and dropped round explicitly accounted, nothing
// silent. Committed corrections under faults must stay bit-identical to
// the healthy stream's for the same windows.
package chaos_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/fpn/flagproxy/internal/chaos"
	"github.com/fpn/flagproxy/internal/experiment"
	"github.com/fpn/flagproxy/internal/rtd"
	"github.com/fpn/flagproxy/internal/sim"
)

// serviceStack builds the online decode stack for the chaos workload.
func serviceStack(t *testing.T) *experiment.Online {
	t.Helper()
	code := rotated3(t)
	pl, err := experiment.NewPipeline(code, chaosArch)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(code)
	o, err := pl.NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func serviceWindows(t *testing.T, o *experiment.Online, n int) [][][]int {
	t.Helper()
	c := o.Circuit()
	smp := sim.NewBlockSampler(c, (n+63)/64)
	if err := smp.Validate(0, n); err != nil {
		t.Fatal(err)
	}
	res := smp.Run(0, n, o.Config().Seed)
	return rtd.BuildWindows(c, res, 0, n)
}

func TestServiceFaultPlanGoldenCounters(t *testing.T) {
	o := serviceStack(t)
	s, err := rtd.NewServer(rtd.Options{Online: o, ReadTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	rpw := s.Stats().RoundsPerWindow
	fp := o.Config().Fingerprint()
	const shots = 8
	wins := serviceWindows(t, o, shots)
	frames, err := rtd.EncodeWindows(fp, wins)
	if err != nil {
		t.Fatal(err)
	}
	cl := &rtd.Client{URL: ts.URL}
	ctx := context.Background()

	// Leg 1: healthy stream — the reference corrections.
	healthy, err := cl.Stream(ctx, fp, wins)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Fatal != "" || len(healthy.Results) != shots {
		t.Fatalf("healthy leg: fatal=%q results=%d", healthy.Fatal, len(healthy.Results))
	}

	// Leg 2: torn stream — cut strictly inside round 1 of window 2. The
	// two complete windows decode; the partial window's round is dropped.
	plan := chaos.Plan{Seed: 42, Name: "service-faults"}
	tearAt := 1 + 2*rpw + 1 // header, two full windows, one round of window 2
	torn, err := cl.StreamBody(ctx, chaos.TornBody(plan, frames, tearAt))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(torn.Fatal, "torn stream") {
		t.Fatalf("torn leg: fatal = %q, want torn verdict", torn.Fatal)
	}
	if len(torn.Results) != 2 {
		t.Fatalf("torn leg: %d results, want 2 complete windows", len(torn.Results))
	}

	// Leg 3: mid-stream disconnect — clean frame boundary after 3 full
	// windows, no trailer. The vanished client is a torn stream too.
	disc, err := cl.StreamBody(ctx, chaos.DisconnectBody(frames, 1+3*rpw))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(disc.Fatal, "torn stream") {
		t.Fatalf("disconnect leg: fatal = %q, want torn verdict", disc.Fatal)
	}
	if len(disc.Results) != 3 {
		t.Fatalf("disconnect leg: %d results, want 3 complete windows", len(disc.Results))
	}

	// Leg 4: hung client — one full window then silence past the read
	// deadline. The completed window still commits.
	hang := chaos.NewHangingBody(frames, 1+rpw)
	defer hang.Release()
	hung, err := cl.StreamBody(ctx, hang)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hung.Fatal, "hung client") {
		t.Fatalf("hung leg: fatal = %q, want hung verdict", hung.Fatal)
	}
	if len(hung.Results) != 1 {
		t.Fatalf("hung leg: %d results, want 1", len(hung.Results))
	}

	// Bit-identity under faults: every correction committed on a faulted
	// stream matches the healthy stream's for the same window.
	for leg, out := range map[string]*rtd.StreamOutcome{"torn": torn, "disconnect": disc, "hung": hung} {
		for i, r := range out.Results {
			h := healthy.Results[i]
			if r.Status != rtd.StatusOK || len(r.Flips) != len(h.Flips) {
				t.Fatalf("%s leg window %d: %+v != healthy %+v", leg, i, r, h)
			}
			for j := range r.Flips {
				if r.Flips[j] != h.Flips[j] {
					t.Fatalf("%s leg window %d: flips %v != healthy %v", leg, i, r.Flips, h.Flips)
				}
			}
		}
	}

	// Golden snapshot: every round of every leg explicitly accounted.
	st := s.Stats()
	committedWindows := int64(shots + 2 + 3 + 1)
	golden := rtd.Stats{
		Decoder:         o.Config().Decoder.String(),
		Fingerprint:     fp,
		RoundsPerWindow: rpw,
		Streams:         4,
		StreamsTorn:     2, // torn + disconnect
		HungClients:     1,
		RoundsReceived:  int64(shots*rpw) + int64(2*rpw+1) + int64(3*rpw) + int64(rpw),
		CommittedRounds: committedWindows * int64(rpw),
		DroppedRounds:   1, // the torn leg's partial round
		Windows:         committedWindows,
	}
	got := st
	got.P50Ns, got.P99Ns, got.P999Ns = 0, 0, 0 // latency is the one non-deterministic axis
	if got != golden {
		t.Fatalf("counter snapshot:\n got  %+v\nwant %+v", got, golden)
	}
}

// Decoder stalls are the fourth service fault: the primary wedges, the
// deadline trips, and the fallback chain commits — counted as timeout +
// degraded rounds, with the correction bit-identical to the fallback's.
func TestServiceDecoderStallPlanDegrades(t *testing.T) {
	code := rotated3(t)
	pl, err := experiment.NewPipeline(code, chaosArch)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(code)
	cfg.Fallback = []experiment.DecoderKind{experiment.PlainMWPM}
	cfg.DecodeTimeout = 30 * time.Millisecond
	hung := &chaos.HungDecoder{HangAt: 0, Release: make(chan struct{})}
	defer close(hung.Release)
	cfg.WrapDecoder = func(k experiment.DecoderKind, dec experiment.Decoder) experiment.Decoder {
		if k == experiment.FlaggedMWPM {
			hung.Inner = dec
			return hung
		}
		return dec
	}
	o, err := pl.NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rtd.NewServer(rtd.Options{Online: o, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	wins := serviceWindows(t, o, 2)
	cl := &rtd.Client{URL: ts.URL}
	out, err := cl.Stream(context.Background(), o.Config().Fingerprint(), wins)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(out.Results))
	}
	// Window 0 hits the wedge and degrades; window 1 decodes on the
	// reacquired primary handle (HangAt blocks only call 0).
	if out.Results[0].Status != rtd.StatusDegraded || out.Results[0].Decoder != experiment.PlainMWPM.String() {
		t.Fatalf("window 0: %+v, want degraded via plain-mwpm", out.Results[0])
	}
	if out.Results[1].Status != rtd.StatusOK {
		t.Fatalf("window 1: %+v, want ok on the reacquired primary", out.Results[1])
	}
	st := s.Stats()
	rpw := int64(st.RoundsPerWindow)
	if st.TimeoutRounds != rpw || st.DegradedRounds != rpw || st.CommittedRounds != 2*rpw || st.FailedRounds != 0 {
		t.Fatalf("stall accounting: %+v", st)
	}
}
