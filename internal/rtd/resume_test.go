// The resume handshake, enforced at three layers: the client rides
// deterministic connection cuts to a complete, offline-identical result
// set; the server's session table adopts exactly-next resumes and
// refuses replays and gaps; and the salvage path reassembles torn
// responses without trusting a byte past the first damaged frame.
package rtd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/fpn/flagproxy/internal/chaos"
	"github.com/fpn/flagproxy/internal/frame"
	"github.com/fpn/flagproxy/internal/rtd"
)

// statzStats fetches and decodes /statz — the resilience counters must
// be visible to operators, not just to in-process callers.
func statzStats(t *testing.T, url string) rtd.Stats {
	t.Helper()
	resp, err := http.Get(url + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var st rtd.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// rawStream POSTs a body to /v1/stream and parses the framed response
// by hand — resumed segments legitimately answer with windows past 0,
// which the client's own from-zero validation would refuse.
func rawStream(t *testing.T, url string, body []byte) (results []rtd.Result, fatal string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/stream", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	sc := json.NewDecoder(resp.Body)
	for {
		var line struct {
			Rec json.RawMessage `json:"rec"`
		}
		if err := sc.Decode(&line); err != nil {
			break
		}
		var probe struct {
			Window *int    `json:"w"`
			Status string  `json:"st"`
			Err    string  `json:"err"`
			End    *int    `json:"end"`
			X      float64 `json:"-"`
		}
		if err := json.Unmarshal(line.Rec, &probe); err != nil {
			t.Fatalf("unparseable response record %s: %v", line.Rec, err)
		}
		switch {
		case probe.Err != "":
			fatal = probe.Err
		case probe.End != nil:
			return results, fatal
		case probe.Window != nil && probe.Status != "":
			var r rtd.Result
			if err := json.Unmarshal(line.Rec, &r); err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		}
	}
	t.Fatal("response ended without a trailer")
	return nil, ""
}

// TestStreamResumableRidesCutsBitIdentical is the acceptance drill: a
// resumable stream whose first two POSTs are reset mid-body by a
// deterministic chaos plan must still assemble the complete result set,
// and every committed correction must match the offline decode of the
// same syndromes.
func TestStreamResumableRidesCutsBitIdentical(t *testing.T) {
	o := newOnline(t, nil)
	const shots = 32
	wins, res := sampleWindows(t, o, shots)
	s, ts := startServer(t, rtd.Options{Online: o})

	fault := &chaos.NetFault{Plan: chaos.Plan{Seed: 17, Name: "rtd-cut"}, Mode: chaos.NetReset, Times: 2, Path: "/v1/stream"}
	cl := &rtd.Client{URL: ts.URL, HTTP: &http.Client{Transport: fault}}
	out, err := cl.StreamResumable(context.Background(), o.Config().Fingerprint(), "drill-17", wins, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fault.Resets.Load() != 2 {
		t.Fatalf("plan cut %d streams, want 2", fault.Resets.Load())
	}
	if out.Reconnects != 2 {
		t.Errorf("outcome reports %d reconnects, want 2", out.Reconnects)
	}
	if out.Fatal != "" || out.Drained {
		t.Fatalf("resumed stream ended badly: fatal=%q drained=%v", out.Fatal, out.Drained)
	}
	if len(out.Results) != shots {
		t.Fatalf("assembled %d results, want %d", len(out.Results), shots)
	}
	pd := o.Acquire()
	defer pd.Release()
	for i, r := range out.Results {
		if r.Window != i || r.Status != rtd.StatusOK {
			t.Fatalf("result %d = window %d status %q, want in-order ok", i, r.Window, r.Status)
		}
		if want := offlineFlips(t, pd, res, i); !equalFlips(r.Flips, want) {
			t.Fatalf("window %d: resumed flips %v != offline flips %v", i, r.Flips, want)
		}
	}
	st := s.Stats()
	if st.DuplicateRoundRejects != 0 {
		t.Errorf("a correct resume tripped %d duplicate-round rejects", st.DuplicateRoundRejects)
	}
	if st.Reconnects == 0 && st.ResumedRounds != 0 {
		t.Errorf("resumed rounds %d without a counted reconnect", st.ResumedRounds)
	}
	// Operators see the same counters on /statz.
	if ext := statzStats(t, ts.URL); ext.Reconnects != st.Reconnects || ext.ResumedRounds != st.ResumedRounds || ext.DuplicateRoundRejects != st.DuplicateRoundRejects {
		t.Errorf("/statz resilience counters %+v diverge from Stats() %+v", ext, st)
	}
}

// TestResumeHandshakeAdoptionAndRejection drives the session table by
// hand: a cut named stream is queryable, a replayed start is refused
// (and the session survives for a correct retry), a gapped start is
// refused, and the exactly-next start adopts the session, replays the
// missed results and finishes bit-identically.
func TestResumeHandshakeAdoptionAndRejection(t *testing.T) {
	o := newOnline(t, nil)
	const shots = 8
	wins, res := sampleWindows(t, o, shots)
	s, ts := startServer(t, rtd.Options{Online: o})
	fp := o.Config().Fingerprint()
	cl := &rtd.Client{URL: ts.URL}
	ctx := context.Background()
	rpw := s.Stats().RoundsPerWindow

	// Send the header, three full windows and one dangling round, then
	// cut the connection: the server commits windows 0..2 and stashes
	// them under the stream id.
	frames, err := rtd.EncodeWindowsAt(fp, "hand-drill", 0, wins)
	if err != nil {
		t.Fatal(err)
	}
	keep := 1 + 3*rpw + 1 // header + three windows + a torn round
	out, err := cl.StreamBody(ctx, chaos.DisconnectBody(frames, keep))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 || !strings.Contains(out.Fatal, "torn stream") {
		t.Fatalf("cut segment = %d results, fatal %q; want 3 committed windows and a torn verdict", len(out.Results), out.Fatal)
	}

	// The handshake is idempotent and read-only: ask twice, with
	// different high-water marks.
	info, err := cl.Resume(ctx, "hand-drill", 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != rtd.ResumeKnown || info.NextWindow != 3 || len(info.Replay) != 3 {
		t.Fatalf("resume from 0 = %+v, want next 3 with 3 replayed results", info)
	}
	info, err = cl.Resume(ctx, "hand-drill", 3)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != rtd.ResumeKnown || info.NextWindow != 3 || len(info.Replay) != 0 {
		t.Fatalf("resume from 3 = %+v, want next 3 with nothing to replay", info)
	}

	// Replayed start: window 2 is already committed; it must never
	// commit twice, and the session must survive the refused attempt.
	replay, err := rtd.EncodeWindowsAt(fp, "hand-drill", 2, wins[2:])
	if err != nil {
		t.Fatal(err)
	}
	out, err = cl.StreamBody(ctx, bytes.NewReader(rtd.JoinFrames(replay)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 0 || !strings.Contains(out.Fatal, "replayed window") {
		t.Fatalf("replayed resume = %d results, fatal %q; want refusal", len(out.Results), out.Fatal)
	}
	if got := s.Stats().DuplicateRoundRejects; got != 1 {
		t.Errorf("DuplicateRoundRejects = %d, want 1", got)
	}
	// Gapped start: window 4 would skip the uncommitted window 3.
	gap, err := rtd.EncodeWindowsAt(fp, "hand-drill", 4, wins[4:])
	if err != nil {
		t.Fatal(err)
	}
	out, err = cl.StreamBody(ctx, bytes.NewReader(rtd.JoinFrames(gap)))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Fatal, "window gap") {
		t.Fatalf("gapped resume fatal = %q, want a window-gap refusal", out.Fatal)
	}
	if info, err = cl.Resume(ctx, "hand-drill", 3); err != nil || info.Status != rtd.ResumeKnown {
		t.Fatalf("session did not survive refused resumes: %+v err=%v", info, err)
	}

	// The exactly-next start adopts: the suffix decodes, the assembled
	// set is complete and offline-identical, and the retired session is
	// gone from the table.
	resume, err := rtd.EncodeWindowsAt(fp, "hand-drill", 3, wins[3:])
	if err != nil {
		t.Fatal(err)
	}
	results, fatal := rawStream(t, ts.URL, rtd.JoinFrames(resume))
	if fatal != "" || len(results) != shots-3 {
		t.Fatalf("resumed suffix = %d results, fatal %q; want %d clean results", len(results), fatal, shots-3)
	}
	pd := o.Acquire()
	defer pd.Release()
	for i, r := range results {
		w := 3 + i
		if r.Window != w {
			t.Fatalf("resumed result %d carries window %d, want %d", i, r.Window, w)
		}
		if want := offlineFlips(t, pd, res, w); !equalFlips(r.Flips, want) {
			t.Fatalf("window %d: resumed flips %v != offline flips %v", w, r.Flips, want)
		}
	}
	st := s.Stats()
	if st.Reconnects != 1 || st.ResumedRounds != int64(3*rpw) {
		t.Errorf("Reconnects=%d ResumedRounds=%d, want 1 and %d", st.Reconnects, st.ResumedRounds, 3*rpw)
	}
	if info, err = cl.Resume(ctx, "hand-drill", 0); err != nil || info.Status != rtd.ResumeUnknown {
		t.Errorf("session survived a healthy finish: %+v err=%v", info, err)
	}
}

// TestReplayedRoundMidStreamRefused: the round-level fence — a resumed
// segment that opens correctly but then carries an already-committed
// window is torn on the spot and counted.
func TestReplayedRoundMidStreamRefused(t *testing.T) {
	o := newOnline(t, nil)
	wins, _ := sampleWindows(t, o, 4)
	s, ts := startServer(t, rtd.Options{Online: o})
	fp := o.Config().Fingerprint()
	cl := &rtd.Client{URL: ts.URL}
	ctx := context.Background()
	rpw := s.Stats().RoundsPerWindow

	// Stash two committed windows under the id.
	frames, err := rtd.EncodeWindowsAt(fp, "round-replay", 0, wins)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.StreamBody(ctx, chaos.DisconnectBody(frames, 1+2*rpw+1)); err != nil {
		t.Fatal(err)
	}
	// Resume at the correct start window 2, but stamp the first round
	// frame with the committed window 1.
	hdr, err := frame.Encode(1, rtd.Header{Stream: rtd.StreamName, Fingerprint: fp, ID: "round-replay", StartWindow: 2})
	if err != nil {
		t.Fatal(err)
	}
	stale, err := frame.Encode(1, rtd.Round{Window: 1, Round: 0, Fired: nil})
	if err != nil {
		t.Fatal(err)
	}
	out, err := cl.StreamBody(ctx, bytes.NewReader(rtd.JoinFrames([][]byte{hdr, stale})))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Fatal, "replayed round") {
		t.Fatalf("mid-stream replay fatal = %q, want a replayed-round refusal", out.Fatal)
	}
	if got := s.Stats().DuplicateRoundRejects; got != 1 {
		t.Errorf("DuplicateRoundRejects = %d, want 1", got)
	}
}

// TestReplayedRoundRejectedAtEveryStrictPrefix: the byte-level proof
// for the resume handshake — a resumed segment carrying an
// already-committed round must be refused whole, and every strict byte
// prefix of it must leave the session exactly where it was: nothing
// committed twice, nothing lost, next-expected window unmoved.
func TestReplayedRoundRejectedAtEveryStrictPrefix(t *testing.T) {
	o := newOnline(t, nil)
	wins, _ := sampleWindows(t, o, 4)
	s, ts := startServer(t, rtd.Options{Online: o})
	fp := o.Config().Fingerprint()
	cl := &rtd.Client{URL: ts.URL}
	ctx := context.Background()
	rpw := s.Stats().RoundsPerWindow

	frames, err := rtd.EncodeWindowsAt(fp, "prefix-drill", 0, wins)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.StreamBody(ctx, chaos.DisconnectBody(frames, 1+2*rpw+1)); err != nil {
		t.Fatal(err)
	}
	hdr, err := frame.Encode(1, rtd.Header{Stream: rtd.StreamName, Fingerprint: fp, ID: "prefix-drill", StartWindow: 2})
	if err != nil {
		t.Fatal(err)
	}
	stale, err := frame.Encode(1, rtd.Round{Window: 1, Round: 0})
	if err != nil {
		t.Fatal(err)
	}
	body := rtd.JoinFrames([][]byte{hdr, stale})
	for cut := 0; cut < len(body); cut++ {
		if results, _ := rawStream(t, ts.URL, body[:cut]); len(results) != 0 {
			t.Fatalf("prefix of %d/%d bytes committed %d results", cut, len(body), len(results))
		}
		info, err := cl.Resume(ctx, "prefix-drill", 0)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != rtd.ResumeKnown || info.NextWindow != 2 || len(info.Replay) != 2 {
			t.Fatalf("after a %d/%d-byte prefix the session moved: %+v, want next window 2 with 2 replayable results", cut, len(body), info)
		}
	}
	if got := s.Stats().DuplicateRoundRejects; got != 0 {
		t.Fatalf("a strict prefix (which never contains the whole stale round) tripped %d duplicate-round rejects", got)
	}
	// The whole body carries the complete replayed round: refused,
	// counted, and the session still doesn't move.
	results, fatal := rawStream(t, ts.URL, body)
	if len(results) != 0 || !strings.Contains(fatal, "replayed round") {
		t.Fatalf("whole replayed-round segment = %d results, fatal %q", len(results), fatal)
	}
	if got := s.Stats().DuplicateRoundRejects; got != 1 {
		t.Errorf("DuplicateRoundRejects = %d, want 1", got)
	}
	if info, err := cl.Resume(ctx, "prefix-drill", 0); err != nil || info.NextWindow != 2 {
		t.Errorf("after the whole replayed segment the session moved: %+v err=%v", info, err)
	}
}

// TestResumeSessionEviction: the session table is bounded; the oldest
// cut stream is evicted first and an unknown id answers unknown rather
// than hallucinating state.
func TestResumeSessionEviction(t *testing.T) {
	o := newOnline(t, nil)
	wins, _ := sampleWindows(t, o, 4)
	s, ts := startServer(t, rtd.Options{Online: o, MaxSessions: 1})
	fp := o.Config().Fingerprint()
	cl := &rtd.Client{URL: ts.URL}
	ctx := context.Background()
	rpw := s.Stats().RoundsPerWindow

	for _, id := range []string{"oldest", "newest"} {
		frames, err := rtd.EncodeWindowsAt(fp, id, 0, wins)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.StreamBody(ctx, chaos.DisconnectBody(frames, 1+rpw+1)); err != nil {
			t.Fatal(err)
		}
	}
	if info, err := cl.Resume(ctx, "oldest", 0); err != nil || info.Status != rtd.ResumeUnknown {
		t.Errorf("evicted session = %+v err=%v, want unknown", info, err)
	}
	if info, err := cl.Resume(ctx, "newest", 0); err != nil || info.Status != rtd.ResumeKnown || info.NextWindow != 1 {
		t.Errorf("retained session = %+v err=%v, want known at window 1", info, err)
	}
	if info, err := cl.Resume(ctx, "never-existed", 0); err != nil || info.Status != rtd.ResumeUnknown {
		t.Errorf("unknown id = %+v err=%v, want unknown", info, err)
	}
}

// fakeResumeServer pins the client's salvage path against a scripted
// peer: a response torn after two valid result frames must yield
// exactly those two results, the handshake replay must be adopted, and
// the second POST must carry the stream id and the exact next window.
func TestClientSalvageAndSuffixResend(t *testing.T) {
	const shots = 6
	mkResult := func(w int) rtd.Result { return rtd.Result{Window: w, Status: rtd.StatusOK, Decoder: "fake"} }
	encode := func(t *testing.T, v any) []byte {
		t.Helper()
		b, err := frame.Encode(1, v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var mu sync.Mutex
	var posts int
	var secondHeader rtd.Header
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/stream", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		posts++
		switch posts {
		case 1:
			// Two valid result frames, then the connection "dies": no
			// fatal, no trailer.
			_, _ = w.Write(encode(t, mkResult(0)))
			_, _ = w.Write(encode(t, mkResult(1)))
		default:
			// The resumed segment: decode its header, then answer the
			// suffix cleanly.
			var first struct {
				Rec json.RawMessage `json:"rec"`
			}
			dec := json.NewDecoder(r.Body)
			if err := dec.Decode(&first); err != nil {
				t.Errorf("resumed segment: %v", err)
			}
			_ = json.Unmarshal(first.Rec, &secondHeader)
			n := 0
			for w := secondHeader.StartWindow; w < shots; w++ {
				n++
			}
			for i := 0; i < n; i++ {
				_, _ = w.Write(encode(t, mkResult(secondHeader.StartWindow+i)))
			}
			_, _ = w.Write(encode(t, rtd.Trailer{End: n}))
		}
	})
	mux.HandleFunc("GET /v1/resume", func(w http.ResponseWriter, r *http.Request) {
		if got := r.URL.Query().Get("have"); got != "2" {
			t.Errorf("client salvaged have=%s results, want 2", got)
		}
		// The server committed window 2 too; its result died on the wire.
		_ = json.NewEncoder(w).Encode(rtd.ResumeInfo{Status: rtd.ResumeKnown, NextWindow: 3, Replay: []rtd.Result{mkResult(2)}})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	wins := make([][][]int, shots)
	for i := range wins {
		wins[i] = [][]int{nil}
	}
	cl := &rtd.Client{URL: ts.URL}
	out, err := cl.StreamResumable(context.Background(), "fake-fp", "salvage", wins, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Reconnects != 1 {
		t.Errorf("Reconnects = %d, want 1", out.Reconnects)
	}
	if len(out.Results) != shots {
		t.Fatalf("assembled %d results, want %d", len(out.Results), shots)
	}
	for i, r := range out.Results {
		if r.Window != i {
			t.Fatalf("result %d carries window %d; salvage broke ordering", i, r.Window)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if posts != 2 {
		t.Errorf("client made %d stream POSTs, want 2", posts)
	}
	if secondHeader.ID != "salvage" || secondHeader.StartWindow != 3 {
		t.Errorf("resumed header = %+v, want id salvage starting at window 3 (2 salvaged + 1 replayed)", secondHeader)
	}
}
