// Package frame owns the envelope every stream in this repository is
// written in: the checkpoint store, the rtd latency log, the fabric's
// completion streams and both directions of an rtd syndrome stream. A
// stream is JSONL, one envelope per newline-terminated line:
//
//	{"v":V,"crc":C,"rec":R}
//
// R is the record's JSON, C is CRC32-C (Castagnoli) over the exact bytes
// of R as they appear on the line, and V is the schema version the
// writer passes to Encode. Decode checks the JSON shape, the version and
// the checksum before a caller ever sees R, so a flipped bit or a cut
// line is an error, never a wrong record.
//
// Two versions are in use. The checkpoint store predates the envelope:
// its version 1 was a bare Record per line, with no frame and no CRC,
// which the store still loads through its own probe. Its framed format
// is therefore version 2, and the latency log, which shares the store's
// reader contract, writes 2 as well. The fabric and rtd wire formats
// were framed from the start and write version 1. A reader names the one
// version it accepts.
//
// Counted streams (fabric completions, rtd responses) end with a
// trailer: a record carrying an "end" key that counts the records before
// it. ReadCounted holds a complete body to the strict-prefix contract:
// every strict byte prefix of a healthy body fails, because the terminal
// newline, an envelope, or the counted trailer is missing. A connection
// cut at any byte is therefore a detectable torn stream, never a
// silently short one. Each caller keeps its own record rules (block
// order, window order, fatal verdicts) in the callback it passes.
package frame

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// MaxLine is the longest line, its newline included, any stream reader
// buffers. A longer line is an error, so a peer cannot make a reader
// hold an unbounded line in memory.
const MaxLine = 1 << 20

// ErrLineTooLong reports a line over MaxLine.
var ErrLineTooLong = fmt.Errorf("line longer than %d bytes", MaxLine)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// envelope is one line's wire and disk shape.
type envelope struct {
	V   int             `json:"v"`
	CRC uint32          `json:"crc"` // CRC32-C over the raw Rec bytes
	Rec json.RawMessage `json:"rec"`
}

// Checksum is the envelope's CRC32-C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Encode marshals payload and wraps it in a version-v envelope. The
// returned line ends in a newline.
func Encode(v int, payload any) ([]byte, error) {
	rec, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	out, err := json.Marshal(envelope{V: v, CRC: Checksum(rec), Rec: rec})
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Decode validates one line's envelope (JSON shape, version v, CRC32-C
// over the exact rec bytes) and returns rec. Whitespace around the
// envelope, a trailing newline included, is ignored.
func Decode(line []byte, v int) (json.RawMessage, error) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, fmt.Errorf("bad frame: %v", err)
	}
	if env.V != v {
		return nil, fmt.Errorf("unsupported frame version %d", env.V)
	}
	if got := Checksum(env.Rec); got != env.CRC {
		return nil, fmt.Errorf("frame CRC32-C mismatch (stored %08x, computed %08x)", env.CRC, got)
	}
	return env.Rec, nil
}

// Trailer reports whether rec is a trailer, discriminated by its "end"
// key, and the count it carries.
func Trailer(rec json.RawMessage) (end int, ok bool) {
	var probe struct {
		End *int `json:"end"`
	}
	if err := json.Unmarshal(rec, &probe); err != nil || probe.End == nil {
		return 0, false
	}
	return *probe.End, true
}

// ReadLine reads one line from br, newline included, and refuses to
// buffer more than MaxLine bytes of it: a longer line returns
// ErrLineTooLong. At the end of input it returns what it read with
// io.EOF, like bufio.Reader.ReadBytes.
func ReadLine(br *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		chunk, err := br.ReadSlice('\n')
		if len(line)+len(chunk) > MaxLine {
			return nil, ErrLineTooLong
		}
		line = append(line, chunk...)
		if err != bufio.ErrBufferFull {
			return line, err
		}
	}
}

// ReadCounted validates a complete counted stream: version-v envelopes,
// one per newline-terminated line, then a trailer whose count equals the
// records counted before it, then nothing. Lines are checked in order;
// each record before the trailer goes to rec, which reports whether it
// counts toward the trailer, and an error from rec ends the read. So the
// records rec accepted before any error are exactly the body's valid
// prefix. On success ReadCounted returns the trailer record.
func ReadCounted(body []byte, v int, rec func(json.RawMessage) (counted bool, err error)) (json.RawMessage, error) {
	var trailer json.RawMessage
	counted := 0
	for line := 1; len(body) > 0; line++ {
		i := bytes.IndexByte(body, '\n')
		switch {
		case i < 0:
			return nil, fmt.Errorf("torn stream: line %d has no terminal newline", line)
		case i+1 > MaxLine:
			return nil, fmt.Errorf("stream line %d: %w", line, ErrLineTooLong)
		}
		raw := bytes.TrimSpace(body[:i])
		body = body[i+1:]
		switch {
		case len(raw) == 0:
			return nil, fmt.Errorf("stream line %d: empty", line)
		case trailer != nil:
			return nil, fmt.Errorf("stream line %d: data after the trailer", line)
		}
		r, err := Decode(raw, v)
		if err != nil {
			return nil, fmt.Errorf("stream line %d: %w", line, err)
		}
		if end, ok := Trailer(r); ok {
			if end != counted {
				return nil, fmt.Errorf("trailer claims %d records, stream carried %d", end, counted)
			}
			trailer = r
			continue
		}
		c, err := rec(r)
		if err != nil {
			return nil, fmt.Errorf("stream line %d: %w", line, err)
		}
		if c {
			counted++
		}
	}
	if trailer == nil {
		return nil, fmt.Errorf("torn stream: no trailer after %d records", counted)
	}
	return trailer, nil
}
