// Completion-stream framing. A worker posts a shard's per-block
// logical-error counts as a counted stream in the internal/frame
// envelope (version 1): one frame per block, then one framed trailer
// carrying the count of preceding lines. The trailer turns a connection
// cut at any byte into a detectable torn stream instead of a silently
// short shard: frame.ReadCounted accepts a body only when every frame
// checks out and the trailer matches, and readCounts adds this
// schema's rules: block indexes exactly the leased range, in order.
package fabric

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"github.com/fpn/flagproxy/internal/frame"
)

// frameVersion is the completion-stream schema generation.
const frameVersion = 1

// countRec is one block's result: absolute block index and its
// logical-error count.
type countRec struct {
	Block int `json:"b"`
	Errs  int `json:"e"`
}

// countTrailer ends a healthy stream; End is the number of count lines
// that preceded it. Its "end" field discriminates it from a countRec.
type countTrailer struct {
	End int `json:"end"`
}

// writeCounts streams the counts of blocks [first, first+len(counts))
// to w, one frame per block plus the trailer.
func writeCounts(w io.Writer, first int, counts []int) error {
	bw := bufio.NewWriter(w)
	for i, e := range counts {
		if err := writeFrame(bw, countRec{Block: first + i, Errs: e}); err != nil {
			return err
		}
	}
	if err := writeFrame(bw, countTrailer{End: len(counts)}); err != nil {
		return err
	}
	return bw.Flush()
}

func writeFrame(w io.Writer, payload any) error {
	line, err := frame.Encode(frameVersion, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(line)
	return err
}

// readCounts validates one complete completion body for the leased
// range [first, first+n). Any deviation — bad JSON, CRC mismatch, wrong
// block order, short or over-long stream, missing or wrong trailer, a
// cut at any byte — is an error; nothing partial is ever returned, so a
// torn TCP stream can never merge a half shard.
func readCounts(body []byte, first, n int) ([]int, error) {
	counts := make([]int, 0, n)
	_, err := frame.ReadCounted(body, frameVersion, func(payload json.RawMessage) (bool, error) {
		var rec countRec
		if err := json.Unmarshal(payload, &rec); err != nil {
			return false, fmt.Errorf("bad record: %v", err)
		}
		if rec.Block != first+len(counts) {
			return false, fmt.Errorf("block %d out of order (want %d)", rec.Block, first+len(counts))
		}
		if len(counts) == n {
			return false, fmt.Errorf("more than the leased %d blocks", n)
		}
		if rec.Errs < 0 || rec.Errs > blockShotsMax {
			return false, fmt.Errorf("impossible error count %d", rec.Errs)
		}
		counts = append(counts, rec.Errs)
		return true, nil
	})
	if err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	if len(counts) != n {
		return nil, fmt.Errorf("fabric: stream carried %d blocks, lease covers %d", len(counts), n)
	}
	return counts, nil
}

// blockShotsMax is the largest possible per-block error count (one
// 64-shot sampling word).
const blockShotsMax = 64

// countsDigest fingerprints a shard's counts so a duplicate completion
// can be verified idempotent (same digest → "ok") or exposed as a
// conflict (different digest → first completion wins, the liar is
// reported).
func countsDigest(counts []int) uint32 {
	buf := make([]byte, 0, 8*len(counts))
	for _, e := range counts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e))
	}
	return frame.Checksum(buf)
}
