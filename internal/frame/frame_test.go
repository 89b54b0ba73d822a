package frame

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
)

type round struct {
	Window int   `json:"w"`
	Round  int   `json:"r"`
	Fired  []int `json:"f,omitempty"`
}

func TestFrameRoundTrip(t *testing.T) {
	line, err := Encode(1, round{Window: 3, Round: 1, Fired: []int{2, 7, 11}})
	if err != nil {
		t.Fatal(err)
	}
	if line[len(line)-1] != '\n' {
		t.Fatal("encoded frame is not newline-terminated")
	}
	rec, err := Decode(line, 1)
	if err != nil {
		t.Fatal(err)
	}
	var rr round
	if err := json.Unmarshal(rec, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Window != 3 || rr.Round != 1 || len(rr.Fired) != 3 || rr.Fired[2] != 11 {
		t.Fatalf("round-trip mismatch: %+v", rr)
	}
}

func TestFrameCRCCatchesCorruption(t *testing.T) {
	line, err := Encode(2, map[string]string{"stream": "rtd-syndrome"})
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the rec payload (after the "rec": key).
	i := bytes.Index(line, []byte("rtd-syndrome"))
	if i < 0 {
		t.Fatal("payload not found in frame")
	}
	bad := append([]byte(nil), line...)
	bad[i] ^= 0x01
	if _, err := Decode(bad, 2); err == nil || !strings.Contains(err.Error(), "CRC32-C mismatch") {
		t.Fatalf("corrupted frame not rejected: %v", err)
	}
}

func TestFrameVersionGate(t *testing.T) {
	line := []byte(`{"v":99,"crc":0,"rec":{}}`)
	if _, err := Decode(line, 1); err == nil || !strings.Contains(err.Error(), "unsupported frame version") {
		t.Fatalf("future version not rejected: %v", err)
	}
	// A well-formed frame of the other in-use version is refused too.
	v2, err := Encode(2, round{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(v2, 1); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("v2 frame accepted by a v1 reader: %v", err)
	}
}

func TestProbeTrailerDiscrimination(t *testing.T) {
	if _, ok := Trailer(json.RawMessage(`{"w":0,"r":0}`)); ok {
		t.Fatal("round record mistaken for a trailer")
	}
	end, ok := Trailer(json.RawMessage(`{"end":7,"drained":true}`))
	if !ok || end != 7 {
		t.Fatalf("trailer not recognized: end=%d ok=%v", end, ok)
	}
}

// countedBody encodes n round records followed by a trailer counting
// them.
func countedBody(t testing.TB, n int) []byte {
	t.Helper()
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		line, err := Encode(1, round{Window: i, Fired: []int{i}})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
	}
	line, err := Encode(1, map[string]int{"end": n})
	if err != nil {
		t.Fatal(err)
	}
	b.Write(line)
	return b.Bytes()
}

func countAll(json.RawMessage) (bool, error) { return true, nil }

func TestReadCountedRejects(t *testing.T) {
	good := countedBody(t, 2)
	if _, err := ReadCounted(good, 1, countAll); err != nil {
		t.Fatalf("healthy stream rejected: %v", err)
	}
	trailer, err := Encode(1, map[string]int{"end": 2})
	if err != nil {
		t.Fatal(err)
	}
	rec0, err := Encode(1, round{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		body []byte
		v    int
		want string
	}{
		{"empty-body", nil, 1, "no trailer after 0 records"},
		{"no-trailer", rec0, 1, "no trailer after 1 records"},
		{"short-count", append(append([]byte{}, rec0...), trailer...), 1, "trailer claims 2 records, stream carried 1"},
		{"data-after-trailer", append(append([]byte{}, good...), rec0...), 1, "line 4: data after the trailer"},
		{"empty-line", append([]byte("\n"), good...), 1, "line 1: empty"},
		{"wrong-version", good, 2, "unsupported frame version 1"},
		{"long-line", append(bytes.Repeat([]byte(" "), MaxLine), '\n'), 1, ErrLineTooLong.Error()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadCounted(c.body, c.v, countAll)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want %q", err, c.want)
			}
		})
	}
}

// A record the callback refuses ends the read at that line, and only the
// records it accepted before came through: the valid prefix.
func TestReadCountedCallbackErrorNamesLine(t *testing.T) {
	var seen int
	_, err := ReadCounted(countedBody(t, 3), 1, func(json.RawMessage) (bool, error) {
		if seen == 1 {
			return false, errors.New("out of order")
		}
		seen++
		return true, nil
	})
	if err == nil || !strings.Contains(err.Error(), "stream line 2: out of order") || seen != 1 {
		t.Fatalf("err=%v seen=%d, want a line-2 refusal after 1 record", err, seen)
	}
}

// Uncounted records (the rtd fatal verdict) pass through the callback
// without entering the trailer's total.
func TestReadCountedUncountedRecords(t *testing.T) {
	body := countedBody(t, 2)
	fatal, err := Encode(1, map[string]string{"err": "boom"})
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.LastIndexByte(body[:len(body)-1], '\n') + 1
	body = append(append(append([]byte{}, body[:i]...), fatal...), body[i:]...)
	_, err = ReadCounted(body, 1, func(rec json.RawMessage) (bool, error) {
		return !bytes.Contains(rec, []byte(`"err"`)), nil
	})
	if err != nil {
		t.Fatalf("uncounted fatal record broke the count: %v", err)
	}
}

func TestReadLineCapsAtMaxLine(t *testing.T) {
	ok := append(bytes.Repeat([]byte("x"), MaxLine-1), '\n')
	long := append(bytes.Repeat([]byte("y"), MaxLine), '\n')
	br := bufio.NewReaderSize(io.MultiReader(bytes.NewReader(ok), bytes.NewReader(long)), 4096)
	line, err := ReadLine(br)
	if err != nil || !bytes.Equal(line, ok) {
		t.Fatalf("a MaxLine-byte line: len %d err %v", len(line), err)
	}
	if _, err := ReadLine(br); !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("a %d-byte line: err %v, want ErrLineTooLong", len(long), err)
	}
	line, err = ReadLine(bufio.NewReader(strings.NewReader("tail")))
	if string(line) != "tail" || err != io.EOF {
		t.Fatalf("unterminated tail: %q %v, want \"tail\" with io.EOF", line, err)
	}
}

// FuzzDecode: Decode never panics on arbitrary input; any JSON payload
// survives Encode→Decode as its compact form; and a body the strict
// counted reader accepts is refused at every shorter length, whether it
// came from the fuzzer or was built from the input by Encode.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(`{"v":1,"crc":0,"rec":{}}`))
	f.Add([]byte(`{"b":3,"e":1}`))
	f.Add(countedBody(f, 2))
	f.Add([]byte("{\"end\":0}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range []int{1, 2} {
			_, _ = Decode(data, v)
		}
		if json.Valid(data) {
			want, err := json.Marshal(json.RawMessage(data))
			if err != nil {
				t.Fatal(err)
			}
			line, err := Encode(2, json.RawMessage(data))
			if err != nil {
				t.Fatal(err)
			}
			rec, err := Decode(line, 2)
			if err != nil {
				t.Fatalf("encoded frame rejected: %v", err)
			}
			if !bytes.Equal(rec, want) {
				t.Fatalf("round trip: got %s, want %s", rec, want)
			}
		}
		strictPrefixes(t, data)
		// A counted body carrying the input as its one record (capped:
		// the prefix check is quadratic in the body's length).
		body, err := Encode(1, string(data[:min(len(data), 256)]))
		if err != nil {
			t.Fatal(err)
		}
		trailer, err := Encode(1, map[string]int{"end": 1})
		if err != nil {
			t.Fatal(err)
		}
		body = append(body, trailer...)
		if _, err := ReadCounted(body, 1, countAll); err != nil {
			t.Fatalf("encoded counted body rejected: %v", err)
		}
		strictPrefixes(t, body)
	})
}

// strictPrefixes fails if body passes ReadCounted and some strict prefix
// of it passes too.
func strictPrefixes(t *testing.T, body []byte) {
	t.Helper()
	if _, err := ReadCounted(body, 1, countAll); err != nil {
		return
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := ReadCounted(body[:cut], 1, countAll); err == nil {
			t.Fatalf("strict prefix of %d/%d bytes passed: %q", cut, len(body), body[:cut])
		}
	}
}
