// Wire framing for the online decode service. Both directions of a
// syndrome stream are counted streams in the internal/frame envelope
// (version 1), the same envelope as the fabric's completion streams and
// the checkpoint store: a counted trailer at the end turns a connection
// cut at any byte into a detectable torn stream, because every strict
// prefix of a healthy stream fails validation. This file holds only the
// rtd record schema.
//
// Request (client → server): one header record naming the stream kind
// and the configuration fingerprint, then round records in strictly
// sequential (window, round) order, then a trailer counting the round
// records. Response (server → client): one result record per window in
// strictly ascending window order, at most one fatal error record, then
// a trailer counting the result records (Drained set when the stream
// was ended by a server drain).
package rtd

import "github.com/fpn/flagproxy/internal/frame"

// frameVersion is the syndrome-stream schema generation.
const frameVersion = 1

// StreamName discriminates syndrome streams from unrelated POSTs.
const StreamName = "rtd-syndrome"

// Header opens a syndrome stream. Fingerprint must match the serving
// configuration's experiment.Config.Fingerprint — the same engine-drift
// tripwire the fabric uses, pointed the other way.
//
// ID and StartWindow are the resume handshake: a client that names its
// stream can reconnect after a cut and continue from the next
// uncommitted window. StartWindow is the absolute index of the first
// window this request body carries; the server accepts it only when it
// equals the next window it expects for ID, replays nothing, and
// rejects a StartWindow it has already committed past (a replayed
// round must never commit twice).
type Header struct {
	Stream      string `json:"stream"`
	Fingerprint string `json:"fp"`
	ID          string `json:"id,omitempty"`
	StartWindow int    `json:"sw,omitempty"`
}

// Round carries the detectors that fired in one measurement round of
// one window. Windows and rounds are strictly sequential: window w
// sends rounds 0..rpw-1 in order, then window w+1 begins. Fired indices
// are global detector indices, strictly ascending, and must belong to
// round Round of the serving circuit.
type Round struct {
	Window int   `json:"w"`
	Round  int   `json:"r"`
	Fired  []int `json:"f,omitempty"`
}

// Trailer ends a healthy stream in either direction; End counts the
// records (round or result) that preceded it. Drained is set by the
// server when the stream was cut short by an orderly drain rather than
// by the client's trailer.
type Trailer struct {
	End     int  `json:"end"`
	Drained bool `json:"drained,omitempty"`
}

// Result statuses, in decreasing order of health.
const (
	StatusOK       = "ok"       // primary decoder committed within deadline
	StatusDegraded = "degraded" // fallback chain committed after a primary timeout or panic
	StatusError    = "error"    // decoder returned an error; no correction committed
	StatusDeadline = "deadline" // primary deadline expired and no fallback rescued
	StatusFailed   = "failed"   // primary panicked and no fallback rescued
	StatusShed     = "shed"     // admission control refused the window before decoding
)

// Result reports one window's outcome: the status above, the decoder
// that produced the correction, and the correction itself as the
// strictly ascending indices of logical observables to flip.
type Result struct {
	Window  int    `json:"w"`
	Status  string `json:"st"`
	Decoder string `json:"dec,omitempty"`
	Flips   []int  `json:"c,omitempty"`
}

// Committed reports whether a correction was committed for the window.
func (r Result) Committed() bool {
	return r.Status == StatusOK || r.Status == StatusDegraded
}

// Fatal aborts a stream with a server-side verdict (protocol violation,
// torn request, fingerprint mismatch). It is followed by the trailer.
type Fatal struct {
	Err string `json:"err"`
}

// EncodeWindows builds a complete, healthy request body for the given
// windows: the header, each window's rounds in order, the trailer. Each
// element of wins holds the per-round fired-detector lists of one
// window (wins[w][r] = global detector indices fired in round r).
func EncodeWindows(fingerprint string, wins [][][]int) ([][]byte, error) {
	return EncodeWindowsAt(fingerprint, "", 0, wins)
}

// EncodeWindowsAt is EncodeWindows for a resumable stream: the header
// names the stream id and the absolute index of the first window in
// wins, and every round frame carries its absolute window index. A
// fresh stream is start 0; a resumed one continues where the previous
// segment was cut.
func EncodeWindowsAt(fingerprint, id string, start int, wins [][][]int) ([][]byte, error) {
	frames := make([][]byte, 0, 2)
	h, err := frame.Encode(frameVersion, Header{Stream: StreamName, Fingerprint: fingerprint, ID: id, StartWindow: start})
	if err != nil {
		return nil, err
	}
	frames = append(frames, h)
	rounds := 0
	for w, win := range wins {
		for r, fired := range win {
			line, err := frame.Encode(frameVersion, Round{Window: start + w, Round: r, Fired: fired})
			if err != nil {
				return nil, err
			}
			frames = append(frames, line)
			rounds++
		}
	}
	t, err := frame.Encode(frameVersion, Trailer{End: rounds})
	if err != nil {
		return nil, err
	}
	return append(frames, t), nil
}

// ResumeInfo answers GET /v1/resume (plain JSON, not framed — it is a
// point query, not a stream): whether the server still holds state for
// the stream id, the next window it expects, and the results it
// already committed past the client's high-water mark (decoded while
// the connection was dying, delivered nowhere).
type ResumeInfo struct {
	Status     string   `json:"status"` // "resume" (state held) or "unknown"
	NextWindow int      `json:"next_window"`
	Replay     []Result `json:"replay,omitempty"`
}

// Resume statuses.
const (
	ResumeKnown   = "resume"
	ResumeUnknown = "unknown"
)
