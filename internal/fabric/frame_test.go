package fabric

import (
	"bytes"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	counts := []int{0, 3, 64, 1, 0, 7}
	var buf bytes.Buffer
	if err := writeCounts(&buf, 40, counts); err != nil {
		t.Fatal(err)
	}
	got, err := readCounts(buf.Bytes(), 40, len(counts))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(counts) {
		t.Fatalf("round-tripped %d counts, want %d", len(got), len(counts))
	}
	for i := range counts {
		if got[i] != counts[i] {
			t.Errorf("count %d: got %d, want %d", i, got[i], counts[i])
		}
	}
}

// Every strict prefix of a healthy stream must be rejected: a TCP
// connection can die at any byte, and a torn stream merging partially
// would splice a half shard into the frontier.
func TestTornStreamAtEveryByteIsRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeCounts(&buf, 0, []int{2, 0, 5}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := readCounts(full[:cut], 0, 3); err == nil {
			t.Fatalf("stream torn at byte %d/%d was accepted", cut, len(full))
		}
	}
	if _, err := readCounts(full, 0, 3); err != nil {
		t.Fatalf("intact stream rejected: %v", err)
	}
}

func TestStreamValidation(t *testing.T) {
	mk := func(first int, counts []int) []byte {
		var b bytes.Buffer
		if err := writeCounts(&b, first, counts); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	cases := []struct {
		name string
		body []byte
		n    int
		want string
	}{
		{"wrong-first-block", mk(5, []int{1, 2}), 2, "out of order"},
		{"short-stream", mk(0, []int{1}), 2, "lease covers"},
		{"over-long", mk(0, []int{1, 2, 3}), 2, "more than the leased"},
		{"bit-flip", flipByte(t, mk(0, []int{1, 2}), 20), 2, ""},
		{"junk", []byte("not json\n"), 1, "invalid character"},
		{"impossible-count", mk(0, []int{65}), 1, "impossible error count"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := readCounts(c.body, 0, c.n)
			if err == nil {
				t.Fatal("damaged stream accepted")
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// flipByte flips one bit inside the rec payload region so the CRC must
// catch it.
func flipByte(t *testing.T, b []byte, off int) []byte {
	t.Helper()
	out := append([]byte(nil), b...)
	// Flip within a digit character so the line stays valid JSON and
	// only the checksum can notice.
	for i := off; i < len(out); i++ {
		if out[i] >= '0' && out[i] <= '8' {
			out[i]++
			return out
		}
	}
	t.Fatal("no digit to flip")
	return nil
}

func TestCountsDigestDiscriminates(t *testing.T) {
	a := countsDigest([]int{1, 2, 3})
	if b := countsDigest([]int{1, 2, 3}); a != b {
		t.Error("digest is not deterministic")
	}
	if b := countsDigest([]int{1, 2, 4}); a == b {
		t.Error("digest collided on differing counts")
	}
	if b := countsDigest([]int{3, 2, 1}); a == b {
		t.Error("digest ignored order")
	}
}
