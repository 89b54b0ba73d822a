// Syndrome-stream client: builds healthy request bodies, streams them,
// and fully validates the response — frame.ReadCounted checks every
// frame's CRC and the counted trailer, decodeResponseFrom the strict
// window order — so a torn response is an error, never a silently short
// result set. The chaos suite and the decoded command's load generator
// both drive the service through this client (the chaos clients damage
// the encoded body before sending).
package rtd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/frame"
	"github.com/fpn/flagproxy/internal/sim"
)

// Client posts syndrome streams to a decoded server.
type Client struct {
	URL  string       // server base address, e.g. "http://host:9912"
	HTTP *http.Client // nil means http.DefaultClient
}

// HTTPError is a non-200 verdict from the service — notably the 429
// admission refusal and the 503 draining refusal.
type HTTPError struct {
	Code int
	Msg  string
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("rtd: HTTP %d: %s", e.Code, e.Msg)
}

// StreamOutcome is one stream's validated response.
type StreamOutcome struct {
	Results []Result
	Drained bool   // the server ended the stream by draining
	Fatal   string // server-side verdict that aborted the stream, if any
	// Reconnects counts the mid-stream cuts StreamResumable rode out;
	// always 0 for Stream/StreamBody.
	Reconnects int
}

// Stream encodes wins (per-window, per-round fired detector indices)
// and posts them as one healthy syndrome stream.
func (cl *Client) Stream(ctx context.Context, fingerprint string, wins [][][]int) (*StreamOutcome, error) {
	frames, err := EncodeWindows(fingerprint, wins)
	if err != nil {
		return nil, err
	}
	return cl.StreamBody(ctx, bytes.NewReader(JoinFrames(frames)))
}

// StreamBody posts a raw request body — the chaos seam: callers may
// tear, corrupt or stall the framed bytes — and validates the response.
func (cl *Client) StreamBody(ctx context.Context, body io.Reader) (*StreamOutcome, error) {
	data, err := cl.post(ctx, body)
	if err != nil {
		return nil, err
	}
	return decodeResponse(data)
}

// post runs one stream POST and returns the raw response bytes.
func (cl *Client) post(ctx context.Context, body io.Reader) ([]byte, error) {
	hc := cl.HTTP
	if hc == nil {
		// Streams are long-lived by design, so a blanket client Timeout
		// would tear healthy ones; the request context is the bound.
		hc = http.DefaultClient //fpnvet:nodeadline request lifetime is bounded by the caller's context
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.URL+"/v1/stream", body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/jsonl")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	//fpnvet:nodeadline stream duration is load-dependent; the request context bounds the read
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return nil, fmt.Errorf("rtd: torn response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &HTTPError{Code: resp.StatusCode, Msg: string(bytes.TrimSpace(data))}
	}
	return data, nil
}

// StreamResumable streams wins as a named resumable stream and rides
// out up to maxResumes mid-stream cuts: after each cut it salvages the
// validated prefix of the torn response, asks /v1/resume what the
// server committed beyond that, and resends exactly the uncommitted
// suffix under the same stream id. A partition costs latency and
// reconnects — never correctness: every committed window is collected
// exactly once and the assembled result set is validated the same way
// a healthy stream's is.
func (cl *Client) StreamResumable(ctx context.Context, fingerprint, id string, wins [][][]int, maxResumes int) (*StreamOutcome, error) {
	if id == "" {
		return nil, fmt.Errorf("rtd: a resumable stream needs an id")
	}
	out := &StreamOutcome{}
	sendFrom := 0
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > maxResumes {
			return nil, fmt.Errorf("rtd: stream %q still cut after %d resumes: %w", id, maxResumes, lastErr)
		}
		if attempt > 0 {
			out.Reconnects++
		}
		frames, err := EncodeWindowsAt(fingerprint, id, sendFrom, wins[sendFrom:])
		if err != nil {
			return nil, err
		}
		data, err := cl.post(ctx, bytes.NewReader(JoinFrames(frames)))
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			var he *HTTPError
			if errors.As(err, &he) {
				return nil, err // an explicit refusal (429/503), not a cut
			}
			lastErr = err
		} else {
			// A torn segment still yields its strictly valid prefix —
			// frames after the first damaged byte are untrusted.
			seg, err := decodeResponseFrom(data, sendFrom)
			out.Results = append(out.Results, seg.Results...)
			if err == nil {
				// A healthy segment ends the stream: adopt its verdicts.
				out.Drained, out.Fatal = seg.Drained, seg.Fatal
				return out, nil
			}
			lastErr = err
		}
		// Ask the server where the stream actually stands; it may have
		// committed windows whose results died on the wire.
		info, err := cl.Resume(ctx, id, len(out.Results))
		if err != nil {
			lastErr = err
			continue
		}
		if info.Status == ResumeKnown {
			for _, r := range info.Replay {
				if r.Window != len(out.Results) {
					return nil, fmt.Errorf("rtd: resume replay out of order: window %d, want %d", r.Window, len(out.Results))
				}
				out.Results = append(out.Results, r)
			}
			if info.NextWindow != len(out.Results) {
				return nil, fmt.Errorf("rtd: resume handshake inconsistent: next window %d with %d results", info.NextWindow, len(out.Results))
			}
		}
		sendFrom = len(out.Results)
		if sendFrom > len(wins) {
			return nil, fmt.Errorf("rtd: server committed %d windows of a %d-window stream", sendFrom, len(wins))
		}
	}
}

// Resume queries the server's resume handshake for a named stream.
func (cl *Client) Resume(ctx context.Context, id string, have int) (*ResumeInfo, error) {
	hc := cl.HTTP
	if hc == nil {
		hc = http.DefaultClient //fpnvet:nodeadline request lifetime is bounded by the caller's context
	}
	u := cl.URL + "/v1/resume?" + url.Values{"stream": {id}, "have": {fmt.Sprint(have)}}.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	//fpnvet:nodeadline a resume reply is one small JSON object; the request context bounds the read
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &HTTPError{Code: resp.StatusCode, Msg: string(bytes.TrimSpace(data))}
	}
	var info ResumeInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return nil, fmt.Errorf("rtd: bad resume reply: %v", err)
	}
	return &info, nil
}

// JoinFrames concatenates encoded frames into one body.
func JoinFrames(frames [][]byte) []byte {
	return bytes.Join(frames, nil)
}

// decodeResponse validates a complete response stream: newline-
// terminated framing, per-frame CRC, results in strictly ascending
// window order, at most one fatal verdict, a trailer counting the
// results. Any deviation is an error and nothing partial is returned.
func decodeResponse(data []byte) (*StreamOutcome, error) {
	out, err := decodeResponseFrom(data, 0)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// decodeResponseFrom is decodeResponse for a resumed segment whose
// first result must carry absolute window index from. On error the
// outcome still holds the segment's strictly valid result prefix:
// CRC-checked results in exact window order, up to the first damaged
// or out-of-order byte. Those are as trustworthy as a healthy stream's
// results — only completeness is lost — so a resuming client keeps
// them.
func decodeResponseFrom(data []byte, from int) (*StreamOutcome, error) {
	out := &StreamOutcome{}
	tr, err := frame.ReadCounted(data, frameVersion, func(rec json.RawMessage) (bool, error) {
		var probe struct {
			Err    *string `json:"err"`
			Status *string `json:"st"`
		}
		if err := json.Unmarshal(rec, &probe); err != nil {
			return false, fmt.Errorf("bad record: %v", err)
		}
		switch {
		case probe.Err != nil:
			if out.Fatal != "" {
				return false, errors.New("second fatal verdict")
			}
			out.Fatal = *probe.Err
			return false, nil
		case probe.Status != nil:
			if out.Fatal != "" {
				return false, errors.New("result after a fatal verdict")
			}
			var res Result
			if err := json.Unmarshal(rec, &res); err != nil {
				return false, fmt.Errorf("bad result: %v", err)
			}
			if res.Window != from+len(out.Results) {
				return false, fmt.Errorf("window %d out of order (want %d)", res.Window, from+len(out.Results))
			}
			out.Results = append(out.Results, res)
			return true, nil
		}
		return false, errors.New("unrecognized record")
	})
	if err != nil {
		return out, fmt.Errorf("rtd: response: %w", err)
	}
	var t Trailer
	if err := json.Unmarshal(tr, &t); err != nil {
		return out, fmt.Errorf("rtd: response: bad trailer: %v", err)
	}
	out.Drained = t.Drained
	return out, nil
}

// RoundsPerWindow is the number of rounds one window of c's syndrome
// stream carries: the circuit's full round span, max detector Round + 1.
func RoundsPerWindow(c *circuit.Circuit) int {
	rpw := 0
	for _, d := range c.Detectors {
		rpw = max(rpw, d.Round+1)
	}
	return rpw
}

// BuildWindows converts n sampled shots (starting at firstShot) into
// the per-window, per-round fired-detector lists a syndrome stream
// carries: one window per shot, indices strictly ascending within each
// round. The inverse of what the service reassembles, so a round-trip
// is exact.
func BuildWindows(c *circuit.Circuit, res *sim.Result, firstShot, n int) [][][]int {
	rpw := RoundsPerWindow(c)
	wins := make([][][]int, n)
	for s := 0; s < n; s++ {
		win := make([][]int, rpw)
		for d := range c.Detectors {
			if res.DetectorBit(d, firstShot+s) {
				r := c.Detectors[d].Round
				win[r] = append(win[r], d)
			}
		}
		wins[s] = win
	}
	return wins
}
