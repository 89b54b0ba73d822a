package checkpoint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLatencyLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "latency.jsonl")
	l, err := OpenLatencyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []LatencyRec{
		{Window: 0, Status: "ok", Decoder: "flagged-mwpm", Ns: 12345},
		{Window: 1, Status: "degraded", Decoder: "plain-mwpm", Ns: 99999},
		{Window: 2, Status: "shed", Ns: 0},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, torn, err := ReadLatencies(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("clean log reported a torn tail")
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}

	// Reopen and append: the log is append-only across process lives.
	l2, err := OpenLatencyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(LatencyRec{Window: 3, Status: "ok", Ns: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err = ReadLatencies(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[3].Window != 3 {
		t.Fatalf("append across reopen: %+v", got)
	}
}

func TestLatencyLogTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "latency.jsonl")
	l, err := OpenLatencyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(LatencyRec{Window: 0, Status: "ok", Ns: 7}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A writer killed mid-append leaves a newline-less fragment.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":2,"crc":123,"rec":{"w":1,`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := ReadLatencies(path)
	if err != nil {
		t.Fatal(err)
	}
	if !torn {
		t.Fatal("torn tail not reported")
	}
	if len(recs) != 1 || recs[0].Window != 0 {
		t.Fatalf("intact prefix lost: %+v", recs)
	}
}

func TestLatencyLogRefusesMidFileDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "latency.jsonl")
	l, err := OpenLatencyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := l.Append(LatencyRec{Window: i, Status: "ok", Ns: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the first line: CRC must catch it.
	i := strings.IndexByte(string(data), 'w')
	bad := append([]byte(nil), data...)
	bad[i] ^= 0x01
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadLatencies(path); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("mid-file damage not refused: %v", err)
	}
	// A blank line between two intact records is damage too, the same
	// verdict the store's quarantine gives it.
	nl := strings.IndexByte(string(data), '\n') + 1
	blank := append(append(append([]byte(nil), data[:nl]...), '\n'), data[nl:]...)
	if err := os.WriteFile(path, blank, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadLatencies(path); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("mid-file blank line not refused: %v", err)
	}
}
