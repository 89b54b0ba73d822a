package rtd_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"github.com/fpn/flagproxy/internal/frame"
	"github.com/fpn/flagproxy/internal/rtd"
)

// A healthy server response body is accepted whole by the client's
// reader and refused at every strict byte prefix: a connection can die
// at any byte, and a cut response must never pass for a short result
// set. At every cut the salvaged prefix a resuming client keeps is only
// whole result frames, in window order, exactly as the full body has
// them.
func TestEveryStrictPrefixFailsValidation(t *testing.T) {
	o := newOnline(t, nil)
	wins, _ := sampleWindows(t, o, 3)
	_, ts := startServer(t, rtd.Options{Online: o})
	frames, err := rtd.EncodeWindows(o.Config().Fingerprint(), wins)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/stream", "application/jsonl", bytes.NewReader(rtd.JoinFrames(frames)))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	full, err := rtd.DecodeResponse(body)
	if err != nil {
		t.Fatalf("healthy response rejected: %v", err)
	}
	if len(full.Results) != len(wins) || full.Fatal != "" {
		t.Fatalf("healthy response carried %d results (fatal %q), want %d", len(full.Results), full.Fatal, len(wins))
	}
	for cut := 0; cut < len(body); cut++ {
		if out, err := rtd.DecodeResponse(body[:cut]); err == nil || out != nil {
			t.Fatalf("strict prefix of %d/%d bytes accepted", cut, len(body))
		}
		seg, err := rtd.DecodeResponseFrom(body[:cut], 0)
		if err == nil {
			t.Fatalf("strict prefix of %d/%d bytes accepted as a segment", cut, len(body))
		}
		whole := min(bytes.Count(body[:cut], []byte("\n")), len(full.Results))
		if len(seg.Results) != whole || (whole > 0 && !reflect.DeepEqual(seg.Results, full.Results[:whole])) {
			t.Fatalf("cut at %d/%d bytes salvaged %+v, want the %d whole results %+v", cut, len(body), seg.Results, whole, full.Results[:whole])
		}
	}
}

// A request line over frame.MaxLine ends the stream torn with a fatal
// naming the limit; the server never buffers past it.
func TestOverlongRequestLineIsTorn(t *testing.T) {
	o := newOnline(t, nil)
	s, ts := startServer(t, rtd.Options{Online: o})
	frames, err := rtd.EncodeWindows(o.Config().Fingerprint(), nil)
	if err != nil {
		t.Fatal(err)
	}
	body := append(append([]byte{}, frames[0]...), bytes.Repeat([]byte("x"), frame.MaxLine)...)
	body = append(body, '\n')
	cl := &rtd.Client{URL: ts.URL}
	out, err := cl.StreamBody(context.Background(), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Fatal, "torn stream") || !strings.Contains(out.Fatal, "1048576 bytes") {
		t.Fatalf("fatal = %q, want a torn stream naming the 1048576-byte line limit", out.Fatal)
	}
	if st := s.Stats(); st.StreamsTorn != 1 {
		t.Fatalf("StreamsTorn = %d, want 1", st.StreamsTorn)
	}
}
