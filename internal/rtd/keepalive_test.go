package rtd_test

import (
	"bytes"
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fpn/flagproxy/internal/experiment"
	"github.com/fpn/flagproxy/internal/rtd"
)

// lockedBuffer is an io.Writer safe for the server's concurrent logging.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// A paced client ends its request body a little after it stops
// sending frames, as a generator writing into a pipe does. If the
// handler returns without reading that end, net/http's own post-handler
// drain reaches EOF, starts a background read, and the keep-alive read
// that follows panics with "invalid concurrent Body.Read call". The
// server must read a clean stream to EOF itself, and keep the drain of
// a torn one from reaching EOF.
func TestLateBodyEOFKeepsConnectionsSound(t *testing.T) {
	o := newOnline(t, nil)
	wins, _ := sampleWindows(t, o, 2)
	frames, err := rtd.EncodeWindows(o.Config().Fingerprint(), wins)
	if err != nil {
		t.Fatal(err)
	}
	whole := rtd.JoinFrames(frames)
	for _, tc := range []struct {
		name       string
		body, tail []byte // sent at once, and 20ms before the body ends
		results    int
	}{
		{"trailer", whole, nil, len(wins)},
		{"torn", append(append([]byte{}, frames[0]...), "{\"v\":1,\"crc\":1,\"rec\":{}}\n"...), whole[len(frames[0]):], 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := serveLateEOF(t, o, tc.body, tc.tail, tc.results); got != "" {
				t.Fatalf("server connection panicked:\n%s", got)
			}
		})
	}
}

// serveLateEOF runs eight such streams against a fresh server and
// returns any connection panics its error log recorded.
func serveLateEOF(t *testing.T, o *experiment.Online, body, tail []byte, results int) string {
	s, err := rtd.NewServer(rtd.Options{Online: o, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var errLog lockedBuffer
	var mu sync.Mutex
	conns := 0
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ErrorLog = log.New(&errLog, "", 0)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch st {
		case http.StateNew:
			conns++
		case http.StateClosed, http.StateHijacked:
			conns--
		}
	}
	ts.Start()
	defer ts.Close()
	tr := &http.Transport{}
	cl := &rtd.Client{URL: ts.URL, HTTP: &http.Client{Transport: tr}}

	const streams = 8
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(2)
		pr, pw := io.Pipe()
		go func() {
			defer wg.Done()
			_, err := pw.Write(body)
			time.Sleep(20 * time.Millisecond)
			if err == nil && len(tail) > 0 {
				_, err = pw.Write(tail)
			}
			_ = pw.CloseWithError(err)
		}()
		go func() {
			defer wg.Done()
			out, err := cl.StreamBody(context.Background(), pr)
			if err != nil {
				t.Error(err)
				return
			}
			if len(out.Results) != results {
				t.Errorf("stream outcome: %d results, want %d (fatal %q)", len(out.Results), results, out.Fatal)
			}
		}()
	}
	wg.Wait()
	// Close the client side of every kept-alive connection and wait for
	// the server to see each one end: a connection that panicked has
	// logged it by then.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		tr.CloseIdleConnections()
		mu.Lock()
		open := conns
		mu.Unlock()
		if open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open", open)
		}
	}
	if got := errLog.String(); strings.Contains(got, "http: panic serving") {
		return got
	}
	return ""
}
