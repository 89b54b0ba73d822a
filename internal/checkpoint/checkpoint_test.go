package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/fpn/flagproxy/internal/frame"
)

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Key: "a", Blocks: 10, Shots: 640, Errors: 3},
		{Key: "b", Blocks: 16, Shots: 1000, Errors: 7, EarlyStopped: true, Done: true},
	}
	for _, r := range recs {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh Open must see exactly what was put.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != len(recs) {
		t.Fatalf("reloaded %d records, want %d", s2.Len(), len(recs))
	}
	for _, want := range recs {
		got, ok := s2.Lookup(want.Key)
		if !ok {
			t.Fatalf("key %q missing after reload", want.Key)
		}
		if got != want {
			t.Errorf("key %q: reloaded %+v, want %+v", want.Key, got, want)
		}
	}
	if s2.TornTail() {
		t.Error("clean file reported a torn tail")
	}
}

func TestPutOverwritesAndPersistsLatest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for blocks := 1; blocks <= 5; blocks++ {
		if err := s.Put(Record{Key: "pt", Blocks: blocks, Shots: blocks * 64, Errors: blocks - 1}); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Lookup("pt")
	if !ok || got.Blocks != 5 || got.Shots != 320 || got.Errors != 4 {
		t.Fatalf("latest record not persisted: %+v (ok=%v)", got, ok)
	}
	// The file must hold exactly one line per key, not an append log.
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 1 {
		t.Fatalf("store file has %d lines, want 1:\n%s", n, data)
	}
}

// writeStore puts raw file content in place for load-path tests.
func writeStore(t *testing.T, dir, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, FileName), []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}

// v2Line frames a record exactly as the store writes it.
func v2Line(t *testing.T, rec Record) string {
	t.Helper()
	b, err := frame.Encode(Version, rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Legacy (pre-CRC) files — bare Record JSON per line — must still load
// via the version probe, so old sweeps resume under the new binary.
func TestLoadsLegacyV1Records(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, `{"key":"old-a","blocks":4,"shots":256,"errors":1}
{"key":"old-b","blocks":2,"shots":128,"errors":0,"done":true}
`)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("loaded %d v1 records, want 2", s.Len())
	}
	if r, ok := s.Lookup("old-b"); !ok || !r.Done {
		t.Fatalf("v1 record mangled: %+v (ok=%v)", r, ok)
	}
	// A Put rewrites the whole file in the current format; reloading
	// must keep both records.
	if err := s.Put(Record{Key: "new", Blocks: 1, Shots: 64}); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 3 {
		t.Fatalf("v1→v2 rewrite lost records: %d, want 3", s2.Len())
	}
}

// A trailing newline-less fragment is the expected crash artifact of a
// foreign writer: tolerated, dropped, and reported via TornTail.
func TestTornTailToleratedAndReported(t *testing.T) {
	dir := t.TempDir()
	good := v2Line(t, Record{Key: "good", Blocks: 4, Shots: 256, Errors: 1})
	writeStore(t, dir, good+`{"v":2,"crc":123,"rec":{"key":"torn","blo`)
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail must not fail the open: %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("loaded %d records, want 1 (the healthy prefix)", s.Len())
	}
	if !s.TornTail() {
		t.Error("torn tail was not reported")
	}
	if _, err := os.Stat(filepath.Join(dir, FileName) + ".corrupt"); !os.IsNotExist(err) {
		t.Error("a tolerable torn tail must not be quarantined")
	}
}

// Mid-file garbage — here a line that is not JSON at all — must surface
// as a CorruptRecordError naming the line, and quarantine the file.
func TestMidFileGarbageIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	content := v2Line(t, Record{Key: "good", Blocks: 4, Shots: 256, Errors: 1}) +
		"not json at all\n" +
		v2Line(t, Record{Key: "tail", Blocks: 2, Shots: 128, Errors: 0, Done: true})
	writeStore(t, dir, content)
	_, err := Open(dir)
	var ce *CorruptRecordError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptRecordError, got %v", err)
	}
	if ce.Line != 2 {
		t.Errorf("corrupt line reported as %d, want 2", ce.Line)
	}
	sidecar, err2 := os.ReadFile(ce.Sidecar)
	if err2 != nil {
		t.Fatalf("sidecar missing: %v", err2)
	}
	if string(sidecar) != content {
		t.Error("sidecar does not preserve the damaged file byte-for-byte")
	}
	// The original must stay: a blind rerun has to keep failing loudly
	// instead of silently starting fresh.
	if _, err := os.Stat(filepath.Join(dir, FileName)); err != nil {
		t.Errorf("damaged store file was removed: %v", err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("reopening over damaged state silently succeeded")
	}
}

// A flipped bit that still decodes as JSON used to be committed as
// truth; the CRC32-C frame now catches it as mid-file corruption.
func TestBitRotFailsCRC(t *testing.T) {
	dir := t.TempDir()
	rotted := v2Line(t, Record{Key: "rot", Blocks: 40, Shots: 2560, Errors: 9})
	// Flip one digit inside the framed record: still valid JSON, wrong
	// CRC. The blocks count 40 appears in the rec payload.
	rotted = strings.Replace(rotted, `"blocks":40`, `"blocks":41`, 1)
	content := rotted + v2Line(t, Record{Key: "after", Blocks: 1, Shots: 64})
	writeStore(t, dir, content)
	_, err := Open(dir)
	var ce *CorruptRecordError
	if !errors.As(err, &ce) {
		t.Fatalf("bit rot not detected: %v", err)
	}
	if ce.Line != 1 || !strings.Contains(ce.Reason, "CRC32-C") {
		t.Errorf("unexpected corruption report: line=%d reason=%q", ce.Line, ce.Reason)
	}
}

// A mid-file record cut short (truncated, but newline-terminated) is
// corruption, not a torn tail: tears can only exist at the end.
func TestTruncatedMidFileRecordIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	full := v2Line(t, Record{Key: "cut", Blocks: 8, Shots: 512, Errors: 2})
	truncated := full[:len(full)/2] + "\n"
	writeStore(t, dir, truncated+v2Line(t, Record{Key: "after", Blocks: 1, Shots: 64}))
	_, err := Open(dir)
	var ce *CorruptRecordError
	if !errors.As(err, &ce) {
		t.Fatalf("mid-file truncation not detected: %v", err)
	}
	if ce.Line != 1 {
		t.Errorf("corrupt line reported as %d, want 1", ce.Line)
	}
}

// A fully duplicated record is benign: the more-advanced record wins,
// exactly like a Put replaying the same key.
func TestDuplicatedRecordIsBenign(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir,
		v2Line(t, Record{Key: "p", Blocks: 1, Shots: 64, Errors: 0})+
			v2Line(t, Record{Key: "p", Blocks: 7, Shots: 448, Errors: 2}))
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := s.Lookup("p")
	if !ok || r.Blocks != 7 {
		t.Fatalf("duplicate key resolution: got %+v (ok=%v), want the later record", r, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("duplicate key counted twice: Len=%d", s.Len())
	}
}

// Records from a future schema generation must fail loudly rather than
// be guessed at.
func TestUnsupportedVersionIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, `{"v":9,"crc":0,"rec":{"key":"future"}}
`)
	_, err := Open(dir)
	var ce *CorruptRecordError
	if !errors.As(err, &ce) {
		t.Fatalf("future version accepted: %v", err)
	}
	if !strings.Contains(ce.Reason, "version 9") {
		t.Errorf("reason does not name the version: %q", ce.Reason)
	}
}

func TestRejectsEmptyKey(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Record{Blocks: 1, Shots: 64}); err == nil {
		t.Fatal("Put accepted a record with an empty key")
	}
}

func TestNoTempFilesLeftBehind(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(Record{Key: "k", Blocks: i + 1, Shots: (i + 1) * 64}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != FileName {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only %s", names, FileName)
	}
}

// flakyFS wraps the real FS and fails the first failCreates CreateTemp
// calls, imitating transient I/O errors (ENOSPC bursts, NFS hiccups).
type flakyFS struct {
	FS
	failCreates int
	creates     int
}

func (f *flakyFS) CreateTemp(dir, pattern string) (File, error) {
	f.creates++
	if f.creates <= f.failCreates {
		return nil, fmt.Errorf("injected transient create failure %d", f.creates)
	}
	return f.FS.CreateTemp(dir, pattern)
}

// Transient write errors must be retried with backoff until the flush
// lands; the store file then holds the record as if nothing happened.
func TestPutRetriesTransientWriteErrors(t *testing.T) {
	dir := t.TempDir()
	var slept []time.Duration
	fs := &flakyFS{FS: OSFS(), failCreates: 2}
	s, err := OpenOptions(dir, Options{
		FS:            fs,
		RetryAttempts: 3,
		RetryBackoff:  time.Millisecond,
		Sleep:         func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Record{Key: "r", Blocks: 3, Shots: 192, Errors: 1}); err != nil {
		t.Fatalf("Put did not survive transient failures: %v", err)
	}
	if len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Errorf("backoff schedule %v, want [1ms 2ms]", slept)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := s2.Lookup("r"); !ok || r.Blocks != 3 {
		t.Fatalf("retried flush did not persist: %+v (ok=%v)", r, ok)
	}
}

// A failure outlasting the retry budget surfaces; the record stays in
// memory so the next Put retries the flush implicitly.
func TestPutExhaustsRetryBudget(t *testing.T) {
	dir := t.TempDir()
	fs := &flakyFS{FS: OSFS(), failCreates: 100}
	s, err := OpenOptions(dir, Options{
		FS: fs, RetryAttempts: 3, RetryBackoff: time.Millisecond,
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Record{Key: "r", Blocks: 1, Shots: 64}); err == nil {
		t.Fatal("Put swallowed a persistent write failure")
	}
	if fs.creates != 3 {
		t.Errorf("flush attempted %d times, want 3", fs.creates)
	}
	// The write path heals: the next Put lands both records.
	fs.failCreates = 0
	if err := s.Put(Record{Key: "r2", Blocks: 2, Shots: 128}); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("healed flush lost records: Len=%d, want 2", s2.Len())
	}
}

func TestProbeDir(t *testing.T) {
	if err := ProbeDir(t.TempDir()); err != nil {
		t.Fatalf("probe failed on a writable directory: %v", err)
	}
	if os.Getuid() == 0 {
		t.Skip("running as root: read-only directory permissions are not enforced")
	}
	ro := filepath.Join(t.TempDir(), "ro")
	if err := os.Mkdir(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	if err := ProbeDir(ro); err == nil {
		t.Fatal("probe succeeded on a read-only directory")
	}
}

// Two successive quarantines must not clobber each other: the second
// lands in a numbered sidecar, so the first incident's evidence
// survives an operator replacing the store file and hitting new damage.
func TestSuccessiveQuarantinesKeepDistinctSidecars(t *testing.T) {
	dir := t.TempDir()
	first := "first damaged content\n"
	writeStore(t, dir, first)
	_, err := Open(dir)
	var ce1 *CorruptRecordError
	if !errors.As(err, &ce1) || ce1.Sidecar == "" {
		t.Fatalf("first quarantine: %v", err)
	}
	// The operator replaces the store file; the replacement is damaged
	// too (or was re-damaged). The quarantine must pick a fresh name.
	second := "second damaged content, different bytes\n"
	writeStore(t, dir, second)
	_, err = Open(dir)
	var ce2 *CorruptRecordError
	if !errors.As(err, &ce2) || ce2.Sidecar == "" {
		t.Fatalf("second quarantine: %v", err)
	}
	if ce2.Sidecar == ce1.Sidecar {
		t.Fatalf("second quarantine reused sidecar %s; the first incident's evidence is gone", ce1.Sidecar)
	}
	got1, err := os.ReadFile(ce1.Sidecar)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := os.ReadFile(ce2.Sidecar)
	if err != nil {
		t.Fatal(err)
	}
	if string(got1) != first {
		t.Errorf("first sidecar no longer byte-identical to the first incident")
	}
	if string(got2) != second {
		t.Errorf("second sidecar does not hold the second incident's bytes")
	}
	// A third incident keeps counting up.
	writeStore(t, dir, "third damaged content\n")
	_, err = Open(dir)
	var ce3 *CorruptRecordError
	if !errors.As(err, &ce3) || ce3.Sidecar == "" || ce3.Sidecar == ce1.Sidecar || ce3.Sidecar == ce2.Sidecar {
		t.Fatalf("third quarantine did not get a fresh sidecar: %v", err)
	}
}

// Meta annotations persist alongside records, survive reloads and Puts,
// and stay out of the record namespace entirely.
func TestMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Meta("sched"); ok {
		t.Fatal("fresh store reports a meta entry")
	}
	if err := s.SetMeta("sched", "decode-timeout=2s fallback=plain-mwpm"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Record{Key: "pt", Blocks: 2, Shots: 128, Errors: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetMeta("sched", "decode-timeout=2s fallback=plain-mwpm"); err != nil {
		t.Fatal(err) // idempotent re-set must be a no-op, not an error
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s2.Meta("sched"); !ok || v != "decode-timeout=2s fallback=plain-mwpm" {
		t.Fatalf("meta did not survive reload: %q (ok=%v)", v, ok)
	}
	if s2.Len() != 1 {
		t.Fatalf("meta line leaked into the record namespace: Len=%d, want 1", s2.Len())
	}
	if r, ok := s2.Lookup("pt"); !ok || r.Blocks != 2 {
		t.Fatalf("record mangled next to a meta line: %+v (ok=%v)", r, ok)
	}
	// Overwriting a meta value persists the latest.
	if err := s2.SetMeta("sched", "decode-timeout=0s fallback=none"); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s3.Meta("sched"); v != "decode-timeout=0s fallback=none" {
		t.Fatalf("meta overwrite lost: %q", v)
	}
	if s3.SetMeta("", "x") == nil {
		t.Fatal("SetMeta accepted an empty key")
	}
}

// A meta frame with a flipped bit must fail its CRC like any record.
func TestMetaLineBitRotFailsCRC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetMeta("sched", "decode-timeout=40s"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rotted := strings.Replace(string(data), "40s", "41s", 1)
	if rotted == string(data) {
		t.Fatal("test setup: payload not found in file")
	}
	writeStore(t, dir, rotted)
	_, err = Open(dir)
	var ce *CorruptRecordError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "CRC32-C") {
		t.Fatalf("rotted meta line not caught by CRC: %v", err)
	}
}
