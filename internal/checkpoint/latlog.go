// Latency log: an append-only JSONL sink for the online decode
// service's per-window latency samples, written in the internal/frame
// envelope at the store's Version. Appends are O_APPEND writes of one
// complete line, so a crash can damage at most the final record; the
// reader tolerates exactly that — a trailing newline-less fragment —
// and refuses anything else, mirroring the store's torn-tail contract.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"github.com/fpn/flagproxy/internal/frame"
)

// LatencyRec is one decoded window's latency sample.
type LatencyRec struct {
	Window  int    `json:"w"`
	Status  string `json:"st"`
	Decoder string `json:"dec,omitempty"`
	Ns      int64  `json:"ns"`
}

// LatencyLog appends latency records to a file. Safe for concurrent
// Append calls (the decode workers of an rtd server share one log).
type LatencyLog struct {
	mu sync.Mutex
	f  *os.File
}

// OpenLatencyLog opens (creating if needed) the append-only log at
// path.
func OpenLatencyLog(path string) (*LatencyLog, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: latency log: %w", err)
	}
	return &LatencyLog{f: f}, nil
}

// Append writes one framed record.
func (l *LatencyLog) Append(rec LatencyRec) error {
	line, err := frame.Encode(Version, rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err = l.f.Write(line)
	return err
}

// Close closes the underlying file.
func (l *LatencyLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// ReadLatencies loads every record from the log at path. A trailing
// newline-less fragment — the expected artifact of a writer killed
// mid-append — is dropped and reported via tornTail; any other damage
// (an empty line, bad JSON, CRC mismatch, wrong version) is an error
// naming the line.
func ReadLatencies(path string) (recs []LatencyRec, tornTail bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	if len(data) > 0 && data[len(data)-1] != '\n' {
		data = data[:bytes.LastIndexByte(data, '\n')+1]
		tornTail = true
	}
	for line := 1; len(data) > 0; line++ {
		i := bytes.IndexByte(data, '\n') // found: data ends in a newline
		rec, err := decodeLatency(data[:i+1])
		if err != nil {
			return nil, tornTail, fmt.Errorf("checkpoint: latency log %s line %d: %w", path, line, err)
		}
		recs = append(recs, rec)
		data = data[i+1:]
	}
	return recs, tornTail, nil
}

// decodeLatency decodes one newline-terminated log line.
func decodeLatency(line []byte) (LatencyRec, error) {
	var rec LatencyRec
	if len(line) > frame.MaxLine {
		return rec, frame.ErrLineTooLong
	}
	if len(bytes.TrimSpace(line)) == 0 {
		return rec, errors.New("empty line inside the log")
	}
	payload, err := frame.Decode(line, Version)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("bad record: %v", err)
	}
	return rec, nil
}
