// Package checkpoint persists the committed prefix of long Monte-Carlo
// sweeps so a killed run resumes where it stopped instead of starting
// over. The store is a single JSONL file — one record per line, keyed
// by an opaque fingerprint string (experiment.Config.Fingerprint) —
// rewritten atomically on every update via a temp file and os.Rename.
// A reader therefore always sees either the previous complete state or
// the new complete state, never a torn write: SIGKILL at any instant
// loses at most the blocks committed since the last Put.
//
// Records are framed in the internal/frame envelope (a schema version,
// 2 here, and a CRC32-C checksum), so the store distinguishes the one
// tolerable failure mode — a torn final line from an interrupted
// foreign writer or a filesystem-level truncation — from mid-file
// corruption (bit-rot, manual editing, a hostile writer). A torn tail
// is dropped and reported via TornTail; anything else surfaces as a
// *CorruptRecordError with the offending line number, and the whole
// file is quarantined to a ".corrupt" sidecar so the evidence survives
// while no resume is ever silently recomputed over damaged state. Pre-CRC (version-1) files — bare
// Record JSON per line — still load via the version probe.
//
// The format is deliberately engine-agnostic: records carry only the
// block-aligned committed prefix (blocks, shots, errors) plus the
// done/early-stopped markers. Everything else — what the key means,
// whether a prefix is resumable — is the caller's contract. Callers can
// additionally pin sweep-wide annotations — scheduling knobs, tool
// versions — as meta key/value pairs (SetMeta/Meta), persisted in the
// same checksummed frames as the records.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/fpn/flagproxy/internal/frame"
)

// FileName is the store's file inside its directory.
const FileName = "sweep.jsonl"

// Version is the current record-frame schema generation. Version 1 is
// the pre-CRC format (a bare Record JSON object per line); version 2
// wraps each record in the frame package's {"v","crc","rec"} envelope.
const Version = 2

// Record is one sweep point's committed prefix.
type Record struct {
	// Key identifies the exact run configuration (and engine version)
	// the prefix belongs to; see experiment.Config.Fingerprint.
	Key string `json:"key"`
	// Blocks/Shots/Errors are the committed prefix: a valid resume
	// point of the run, block-aligned by construction.
	Blocks int `json:"blocks"`
	Shots  int `json:"shots"`
	Errors int `json:"errors"`
	// EarlyStopped mirrors Result.EarlyStopped for finished points so a
	// resumed sweep reports them exactly as the original run did.
	EarlyStopped bool `json:"early_stopped,omitempty"`
	// Done marks the point finished: resuming skips it entirely.
	Done bool `json:"done,omitempty"`
}

// metaPayload is the frame payload of a meta line: sweep-wide key/value
// annotations instead of a point record. The "meta" field discriminates
// it from a Record payload (which always carries a non-empty "key").
type metaPayload struct {
	Meta map[string]string `json:"meta"`
}

// CorruptRecordError reports a record that is damaged in a way a torn
// tail cannot explain: garbage or a failed checksum on a line that is
// not the file's final, newline-less fragment. The store refuses to
// load — resuming over silently dropped records would recompute (and
// possibly splice) state the operator believes is committed — and the
// damaged file is copied to Sidecar for forensics before the error is
// returned.
type CorruptRecordError struct {
	Path    string // store file that failed to load
	Line    int    // 1-based line number of the corrupt record
	Reason  string // what was wrong with it
	Sidecar string // copy of the damaged file, "" if the copy failed
}

func (e *CorruptRecordError) Error() string {
	msg := fmt.Sprintf("checkpoint: %s:%d: corrupt record (%s); refusing to resume over damaged state", e.Path, e.Line, e.Reason)
	if e.Sidecar != "" {
		msg += fmt.Sprintf("; file quarantined to %s — inspect it, then delete %s to start fresh", e.Sidecar, e.Path)
	}
	return msg
}

// Options configures a Store beyond its directory. The zero value is
// the production configuration: the real filesystem and a small bounded
// retry for transient write errors.
type Options struct {
	// FS supplies the file operations; nil means the real filesystem.
	// The chaos harness injects failing/corrupting implementations here.
	FS FS
	// RetryAttempts is the total number of flush attempts per Put
	// (first try included) before the error is returned; 0 means 3.
	RetryAttempts int
	// RetryBackoff is the pause before the first retry, doubling each
	// attempt; 0 means 25ms.
	RetryBackoff time.Duration
	// Sleep, when non-nil, replaces time.Sleep for the retry backoff so
	// tests and the chaos suite stay fast and deterministic.
	Sleep func(time.Duration)
}

// Store is an atomic on-disk map from fingerprint to Record. It is safe
// for concurrent use by multiple goroutines of one process. Across
// processes the file is a merge-able ledger: every flush first folds the
// on-disk records back into memory, keeping the more-advanced record
// per key (Done beats in-progress, then the longer committed prefix).
// That merge is sound because records are deterministic functions of
// their fingerprint — two writers of the same key can only disagree on
// how far they got, never on what the counts are — so interleaved
// writers converge on the union of everyone's progress instead of
// last-writer-winning whole files. Two writers racing the read→rename
// window can still each publish their own merge; whichever loses simply
// re-merges on its next flush, and no record ever moves backward.
type Store struct {
	mu       sync.Mutex
	path     string //fpnvet:unguarded immutable after OpenOptions
	fs       FS     //fpnvet:unguarded immutable after OpenOptions
	attempts int
	backoff  time.Duration
	sleep    func(time.Duration)
	torn     bool              // a trailing partial record was dropped at load
	recs     map[string]Record //fpnvet:guardedby mu
	order    []string          //fpnvet:guardedby mu (first-seen key order, for stable file output)
	meta     map[string]string //fpnvet:guardedby mu (sweep-wide annotations, one meta line on disk)
}

// Open creates dir if needed and loads any existing records from it
// with the default Options. A torn final line (a pre-rename crash of a
// foreign writer, a truncated filesystem) is dropped and reported via
// TornTail; any other damage fails the open with a *CorruptRecordError
// after quarantining the file to a ".corrupt" sidecar. Duplicate keys
// resolve to the more-advanced record regardless of line order.
func Open(dir string) (*Store, error) {
	return OpenOptions(dir, Options{})
}

// OpenOptions is Open with explicit filesystem and retry configuration.
func OpenOptions(dir string, opt Options) (*Store, error) {
	fs := opt.FS
	if fs == nil {
		fs = OSFS()
	}
	attempts := opt.RetryAttempts
	if attempts <= 0 {
		attempts = 3
	}
	backoff := opt.RetryBackoff
	if backoff <= 0 {
		backoff = 25 * time.Millisecond
	}
	sleep := opt.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s := &Store{
		path: filepath.Join(dir, FileName), fs: fs,
		attempts: attempts, backoff: backoff, sleep: sleep,
		recs: map[string]Record{}, meta: map[string]string{},
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// parsedFile is the verified content of one store file: records in file
// order (duplicates preserved), the merged annotations, and whether a
// torn tail was dropped.
type parsedFile struct {
	recs []Record
	meta map[string]string
	torn bool
}

// parse reads and verifies one store file's bytes. Only a trailing
// newline-less fragment may fail to parse (torn tail, tolerated and
// flagged); any mid-file damage quarantines the file and returns
// *CorruptRecordError.
func (s *Store) parse(data []byte) (parsedFile, error) {
	pf := parsedFile{meta: map[string]string{}}
	lines := bytes.Split(data, []byte("\n"))
	// A well-formed file ends with a newline, so the final split element
	// is empty; a non-empty final element is a torn-tail candidate.
	tornCandidate := len(data) > 0 && len(lines[len(lines)-1]) > 0
	for i, line := range lines {
		last := i == len(lines)-1
		if len(line) == 0 {
			if last {
				continue // the terminating newline of a healthy file
			}
			return pf, s.quarantine(data, i+1, "empty line inside the record stream")
		}
		rec, meta, err := decodeLine(line)
		if err != nil {
			if last && tornCandidate {
				// The one tolerable failure: the file ends mid-record
				// with no trailing newline. The fragment is at most the
				// newest Put, which a resume recomputes anyway.
				pf.torn = true
				continue
			}
			return pf, s.quarantine(data, i+1, err.Error())
		}
		if meta != nil {
			// A meta line: merge the annotations (later lines win per
			// key, exactly like duplicate records).
			for k, v := range meta {
				pf.meta[k] = v
			}
			continue
		}
		pf.recs = append(pf.recs, rec)
	}
	return pf, nil
}

// load populates a fresh store from the file. Duplicate keys (two
// processes' worth of concatenated records, replayed lines) resolve to
// the more-advanced record regardless of line order, so loading is
// order-independent exactly like the pre-flush merge.
func (s *Store) load() error {
	data, err := s.fs.ReadFile(s.path)
	if err != nil {
		if s.fs.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("checkpoint: %w", err)
	}
	pf, err := s.parse(data)
	if err != nil {
		return err
	}
	s.torn = pf.torn
	for k, v := range pf.meta {
		s.meta[k] = v
	}
	for _, rec := range pf.recs {
		if prev, seen := s.recs[rec.Key]; seen {
			s.recs[rec.Key] = preferRecord(prev, rec)
			continue
		}
		s.order = append(s.order, rec.Key)
		s.recs[rec.Key] = rec
	}
	return nil
}

// preferRecord picks the more-advanced of two records for one key.
// Records are deterministic functions of their fingerprint — two
// writers can only ever disagree on how far they got, never on what the
// committed counts are — so "more advanced" is well-defined and the
// merge is monotone: Done beats in-progress, then the longer committed
// prefix wins, and on exact ties ours is kept.
func preferRecord(ours, theirs Record) Record {
	if ours.Done != theirs.Done {
		if theirs.Done {
			return theirs
		}
		return ours
	}
	if theirs.Blocks > ours.Blocks {
		return theirs
	}
	return ours
}

// mergeDiskLocked folds the current on-disk file back into memory
// before a rewrite, so a flush never erases progress another process
// published since our last read. A torn tail is tolerated exactly as at
// load; mid-file corruption quarantines the file and aborts the flush
// with a *CorruptRecordError (non-retryable — overwriting damaged state
// would destroy the evidence the sidecar just preserved).
func (s *Store) mergeDiskLocked() error {
	data, err := s.fs.ReadFile(s.path)
	if err != nil {
		if s.fs.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("checkpoint: %w", err)
	}
	pf, err := s.parse(data)
	if err != nil {
		return err
	}
	if pf.torn {
		s.torn = true
	}
	for k, v := range pf.meta {
		if _, ok := s.meta[k]; !ok {
			s.meta[k] = v
		}
	}
	for _, rec := range pf.recs {
		ours, seen := s.recs[rec.Key]
		if !seen {
			s.order = append(s.order, rec.Key)
			s.recs[rec.Key] = rec
			continue
		}
		s.recs[rec.Key] = preferRecord(ours, rec)
	}
	return nil
}

// quarantine copies the damaged file to a ".corrupt" sidecar and builds
// the load error. The original stays in place so a rerun keeps failing
// loudly until the operator inspects and removes it — damaged state is
// never silently recomputed over. Sidecar names never collide: a second
// quarantine (new damage after the operator replaced the store file, or
// a rerun over freshly re-damaged state) lands in ".corrupt.1",
// ".corrupt.2", … so earlier evidence is preserved, not overwritten.
func (s *Store) quarantine(data []byte, line int, reason string) error {
	sidecar := s.path + ".corrupt"
	for i := 1; i < 10000; i++ {
		if _, err := s.fs.ReadFile(sidecar); s.fs.IsNotExist(err) {
			break
		}
		// The candidate exists (or is unreadable, which we treat the
		// same way: never overwrite what we cannot inspect).
		sidecar = fmt.Sprintf("%s.corrupt.%d", s.path, i)
	}
	if err := s.fs.WriteFile(sidecar, data); err != nil {
		sidecar = ""
	}
	return &CorruptRecordError{Path: s.path, Line: line, Reason: reason, Sidecar: sidecar}
}

// decodeLine parses one line of either schema generation. Exactly one
// of the returns is populated: a point Record, or (for a v2 meta line)
// the annotation map.
func decodeLine(line []byte) (Record, map[string]string, error) {
	var probe struct {
		V int `json:"v"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return Record{}, nil, fmt.Errorf("not a JSON record: %v", err)
	}
	if probe.V == 0 {
		// Legacy version 1: a bare Record object (no frame, no CRC).
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return Record{}, nil, fmt.Errorf("bad v1 record: %v", err)
		}
		if rec.Key == "" {
			return Record{}, nil, fmt.Errorf("v1 record has an empty key")
		}
		return rec, nil, nil
	}
	payload, err := frame.Decode(line, Version)
	if err != nil {
		return Record{}, nil, err
	}
	var mp metaPayload
	if err := json.Unmarshal(payload, &mp); err == nil && mp.Meta != nil {
		return Record{}, mp.Meta, nil
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, nil, fmt.Errorf("bad record inside a checksummed frame: %v", err)
	}
	if rec.Key == "" {
		return Record{}, nil, fmt.Errorf("record has an empty key")
	}
	return rec, nil, nil
}

// TornTail reports whether the load dropped a trailing partial record —
// the expected artifact of a foreign writer killed mid-write. The
// dropped fragment is at most one Put behind the durable prefix, so
// resuming is safe; callers may want to tell the operator anyway.
func (s *Store) TornTail() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.torn
}

// Lookup returns the record stored for key, if any.
func (s *Store) Lookup(key string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.recs[key]
	return r, ok
}

// Len reports the number of stored records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Keys returns the stored keys in stable (first-seen) order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

// Put upserts rec and atomically rewrites the store file: the new
// content is written to a temp file in the same directory, fsynced,
// and renamed over the old file. A crash at any point leaves the
// previous complete file in place. Transient I/O failures are retried
// with exponential backoff up to the configured attempt budget; the
// in-memory state keeps the record either way, so a later Put retries
// the flush implicitly.
func (s *Store) Put(rec Record) error {
	if rec.Key == "" {
		return fmt.Errorf("checkpoint: record has an empty key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, seen := s.recs[rec.Key]; !seen {
		s.order = append(s.order, rec.Key)
	}
	s.recs[rec.Key] = rec
	return s.flushRetryLocked()
}

// SetMeta upserts one sweep-wide annotation (e.g. the scheduling knobs
// the sweep ran with) and flushes with the same atomicity and retry
// policy as Put. A no-op when the value is already stored.
func (s *Store) SetMeta(key, value string) error {
	if key == "" {
		return fmt.Errorf("checkpoint: meta entry has an empty key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.meta[key]; ok && old == value {
		return nil
	}
	s.meta[key] = value
	return s.flushRetryLocked()
}

// Meta returns the annotation stored for key, if any.
func (s *Store) Meta(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.meta[key]
	return v, ok
}

// flushRetryLocked runs the atomic rewrite under the retry budget.
// Mid-file corruption discovered by the pre-flush merge is not a
// transient I/O failure: retrying would quarantine the same file again
// and again, so it is returned immediately.
func (s *Store) flushRetryLocked() error {
	var err error
	backoff := s.backoff
	for attempt := 0; attempt < s.attempts; attempt++ {
		if attempt > 0 {
			s.sleep(backoff)
			backoff *= 2
		}
		if err = s.flushLocked(); err == nil {
			return nil
		}
		var corrupt *CorruptRecordError
		if errors.As(err, &corrupt) {
			return err
		}
	}
	return fmt.Errorf("checkpoint: flush failed after %d attempts: %w", s.attempts, err)
}

func (s *Store) flushLocked() error {
	if err := s.mergeDiskLocked(); err != nil {
		return err
	}
	dir := filepath.Dir(s.path)
	tmp, err := s.fs.CreateTemp(dir, FileName+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer func() { _ = s.fs.Remove(tmp.Name()) }() // no-op after a successful rename
	w := bufio.NewWriter(tmp)
	if len(s.meta) > 0 {
		// json.Marshal sorts map keys, so the meta line is deterministic.
		line, err := frame.Encode(Version, metaPayload{Meta: s.meta})
		if err == nil {
			_, err = w.Write(line)
		}
		if err != nil {
			_ = tmp.Close() // already failing; the meta write error wins
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	for _, key := range s.order {
		line, err := frame.Encode(Version, s.recs[key])
		if err != nil {
			_ = tmp.Close() // already failing; the encode error wins
			return fmt.Errorf("checkpoint: %w", err)
		}
		if _, err := w.Write(line); err != nil {
			_ = tmp.Close() // already failing; the write error wins
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = tmp.Close() // already failing; the flush/sync error wins
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close() // already failing; the flush/sync error wins
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := s.fs.Rename(tmp.Name(), s.path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Durability of the rename itself needs a directory fsync; treat a
	// failure as best-effort (some filesystems reject dir syncs) — the
	// data file is already consistent either way.
	_ = s.fs.SyncDir(dir)
	return nil
}

// Sorted returns all records ordered by key, for deterministic
// inspection and tests.
func (s *Store) Sorted() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.recs))
	for _, r := range s.recs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
