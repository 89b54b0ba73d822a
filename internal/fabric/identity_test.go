// The fabric's contract, enforced end to end: a sweep point distributed
// over any worker population, any join/leave order, any lease-expiry
// schedule, and any surviving transport fault merges to a result
// byte-identical to the single-machine experiment.Run — early-stopping
// runs included. Workers here are the real RunWorker loop against the
// real Handler over real HTTP (httptest); the protocol-level tests speak
// raw JSON/frames so the wire format is pinned independently of the
// package's own codec helpers.
package fabric_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fpn/flagproxy/internal/chaos"
	"github.com/fpn/flagproxy/internal/checkpoint"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/experiment"
	"github.com/fpn/flagproxy/internal/fabric"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/surface"
)

// rotated3 is the fabric workload: the [[9,1,3]] rotated surface code,
// small enough that a 640-shot point decodes in well under a second.
func rotated3(t testing.TB) *css.Code {
	t.Helper()
	l, err := surface.Rotated(3)
	if err != nil {
		t.Fatal(err)
	}
	return l.Code
}

var fabricArch = fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}

// baseConfig is one deterministic sweep point: 640 shots = 10 blocks,
// ShardShots 64 → ten single-block shards, enough for interesting
// multi-worker interleavings.
func baseConfig(code *css.Code) experiment.Config {
	return experiment.Config{
		Code: code, Arch: fabricArch, Basis: css.Z, P: 5e-3, Shots: 640, Seed: 11,
		Decoder: experiment.FlaggedMWPM, Workers: 1, ShardShots: 64,
	}
}

// summarize renders every result field bit-identity cares about; %.17g
// round-trips float64 exactly, so equal strings mean equal bits.
func summarize(r *experiment.Result) string {
	return fmt.Sprintf("blocks=%d shots=%d errs=%d early=%t interrupted=%t ber=%.17g lo=%.17g hi=%.17g",
		r.Blocks, r.Shots, r.LogicalErrors, r.EarlyStopped, r.Interrupted, r.BER, r.CILow, r.CIHigh)
}

// fakeClock is the injected coordinator clock: time moves only when a
// test says so, making every lease-expiry schedule reproducible.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// runFabric drives one point through a coordinator plus n real workers
// and returns the merged result. Per-worker options (chaos transports,
// MaxShards) come from wopt; nil means defaults. Worker errors fail the
// test — an orderly shutdown returns nil from RunWorker.
func runFabric(t testing.TB, cfg experiment.Config, n int, copt fabric.Options, wopt func(i int) fabric.WorkerOptions) *experiment.Result {
	t.Helper()
	if copt.Now == nil {
		copt.Now = newFakeClock().Now
	}
	co := fabric.NewCoordinator(copt)
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		opt := fabric.WorkerOptions{}
		if wopt != nil {
			opt = wopt(i)
		}
		opt.URL = srv.URL
		if opt.ID == "" {
			opt.ID = fmt.Sprintf("w%d", i)
		}
		if opt.Poll == 0 {
			opt.Poll = time.Millisecond
		}
		wg.Add(1)
		go func(i int, opt fabric.WorkerOptions) {
			defer wg.Done()
			errs[i] = fabric.RunWorker(context.Background(), opt)
		}(i, opt)
	}
	res, err := co.RunPoint(context.Background(), cfg)
	co.Shutdown()
	wg.Wait()
	if err != nil {
		t.Fatalf("RunPoint: %v", err)
	}
	for i, werr := range errs {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	return res
}

// TestIdentityAcrossPopulations is the core identity suite: full runs
// and both early-stopping modes, each distributed over 1, 2, 4 and 8
// workers, must match the single-machine engine byte for byte.
func TestIdentityAcrossPopulations(t *testing.T) {
	code := rotated3(t)
	full := baseConfig(code)
	target := baseConfig(code)
	target.P, target.TargetErrors = 2e-2, 10
	maxCI := baseConfig(code)
	maxCI.P, maxCI.MaxCI = 2e-2, 0.05
	cases := []struct {
		name string
		cfg  experiment.Config
	}{
		{"full-run", full},
		{"target-errors-earlystop", target},
		{"max-ci-earlystop", maxCI},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			golden, err := experiment.RunContext(context.Background(), c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if golden.LogicalErrors == 0 {
				t.Fatal("golden run saw zero logical errors; identity checks would be vacuous")
			}
			if c.cfg.TargetErrors > 0 && !(golden.EarlyStopped && golden.Shots < c.cfg.Shots) {
				t.Fatalf("early-stop case did not stop early (shots=%d early=%t); tune the config", golden.Shots, golden.EarlyStopped)
			}
			want := summarize(golden)
			for _, n := range []int{1, 2, 4, 8} {
				res := runFabric(t, c.cfg, n, fabric.Options{}, nil)
				if got := summarize(res); got != want {
					t.Errorf("%d workers diverged from single-machine:\n got %s\nwant %s", n, got, want)
				}
			}
		})
	}
}

// TestKilledWorkerMidSweep: a worker that leaves after one shard (the
// population shrinks mid-point) must not perturb the merged result.
func TestKilledWorkerMidSweep(t *testing.T) {
	cfg := baseConfig(rotated3(t))
	golden, err := experiment.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := runFabric(t, cfg, 2, fabric.Options{}, func(i int) fabric.WorkerOptions {
		if i == 0 {
			return fabric.WorkerOptions{MaxShards: 1}
		}
		return fabric.WorkerOptions{}
	})
	if got, want := summarize(res), summarize(golden); got != want {
		t.Errorf("shrinking population diverged:\n got %s\nwant %s", got, want)
	}
}

// TestTornStreamsMergeIdentically: a transport that truncates every
// second completion body forces the coordinator down the torn-stream
// rejection path and the worker down the resend path; the merged result
// must not move. The clean worker is held back until the first tear, so
// it cannot finish every shard before the torn-transport worker has
// sent its second completion.
func TestTornStreamsMergeIdentically(t *testing.T) {
	cfg := baseConfig(rotated3(t))
	golden, err := experiment.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fault := &tearSignal{Fabric: &chaos.Fabric{Plan: chaos.Plan{Seed: 7, Name: "torn-completions"}, TearEvery: 2}, torn: make(chan struct{})}
	res := runFabric(t, cfg, 2, fabric.Options{}, func(i int) fabric.WorkerOptions {
		if i == 0 {
			return fabric.WorkerOptions{Client: &http.Client{Transport: fault}}
		}
		return fabric.WorkerOptions{Client: &http.Client{Transport: gatedTransport{open: fault.torn}}}
	})
	if fault.Torn.Load() == 0 {
		t.Error("fault plan tore no streams; the test is vacuous")
	}
	if got, want := summarize(res), summarize(golden); got != want {
		t.Errorf("torn streams diverged:\n got %s\nwant %s", got, want)
	}
}

// tearSignal closes torn once its chaos transport has torn a completion.
type tearSignal struct {
	*chaos.Fabric
	once sync.Once
	torn chan struct{}
}

func (s *tearSignal) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := s.Fabric.RoundTrip(req)
	if s.Torn.Load() > 0 {
		s.once.Do(func() { close(s.torn) })
	}
	return resp, err
}

// gatedTransport holds every request until open is closed.
type gatedTransport struct{ open <-chan struct{} }

func (g gatedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	select {
	case <-g.open:
		return http.DefaultTransport.RoundTrip(req)
	case <-req.Context().Done():
		if req.Body != nil {
			_ = req.Body.Close() // a RoundTripper closes the body even on error
		}
		return nil, req.Context().Err()
	}
}

// TestDuplicateAndDroppedCompletions: double-delivery (DupEvery) and
// delivered-but-unacknowledged completions (DropEvery, which makes the
// worker itself resend) both hit the coordinator's idempotency path.
func TestDuplicateAndDroppedCompletions(t *testing.T) {
	cfg := baseConfig(rotated3(t))
	golden, err := experiment.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	faults := map[string]*chaos.Fabric{
		"duplicated": {Plan: chaos.Plan{Seed: 8, Name: "dup-completions"}, DupEvery: 1},
		"dropped":    {Plan: chaos.Plan{Seed: 9, Name: "dropped-acks"}, DropEvery: 3},
	}
	for _, name := range []string{"duplicated", "dropped"} {
		fault := faults[name]
		t.Run(name, func(t *testing.T) {
			res := runFabric(t, cfg, 1, fabric.Options{}, func(int) fabric.WorkerOptions {
				return fabric.WorkerOptions{Client: &http.Client{Transport: fault}}
			})
			if fault.Duped.Load() == 0 && fault.Dropped.Load() == 0 {
				t.Error("fault plan injected nothing; the test is vacuous")
			}
			if got, want := summarize(res), summarize(golden); got != want {
				t.Errorf("%s completions diverged:\n got %s\nwant %s", name, got, want)
			}
		})
	}
}

// --- raw-protocol helpers: these deliberately re-implement the wire
// format by hand so the JSON schema and frame layout are pinned by a
// second, independent encoder. ---

type rawJob struct {
	Status      string `json:"status"`
	Fingerprint string `json:"fingerprint"`
	LeaseTTLMs  int64  `json:"lease_ttl_ms"`
	Epoch       int64  `json:"epoch"`
}

type rawLease struct {
	Status     string `json:"status"`
	Lease      int64  `json:"lease"`
	Shard      int    `json:"shard"`
	FirstBlock int    `json:"first_block"`
	Blocks     int    `json:"blocks"`
	Epoch      int64  `json:"epoch"`
	Fallback   bool   `json:"fallback"`
}

type rawAck struct {
	Status string `json:"status"`
	Epoch  int64  `json:"epoch"`
}

func rawCall(t *testing.T, method, url string, body []byte, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("%s %s: %v in %q", method, url, err, data)
	}
}

// rawCompletion frames counts by hand: JSONL {"v":1,"crc":C,"rec":R}
// with CRC32-C over the exact rec bytes, then the {"end":N} trailer.
func rawCompletion(first int, counts []int) []byte {
	tbl := crc32.MakeTable(crc32.Castagnoli)
	var b bytes.Buffer
	frame := func(rec string) {
		fmt.Fprintf(&b, `{"v":1,"crc":%d,"rec":%s}`+"\n", crc32.Checksum([]byte(rec), tbl), rec)
	}
	for i, e := range counts {
		frame(fmt.Sprintf(`{"b":%d,"e":%d}`, first+i, e))
	}
	frame(fmt.Sprintf(`{"end":%d}`, len(counts)))
	return b.Bytes()
}

// TestStaleLeaseAndConflictProtocol drives the lease lifecycle by hand:
// a hung worker's lease expires (injected clock, no timers anywhere), a
// second worker is handed the same shard, the stale worker's late
// completion still merges because it is correct by content, the
// duplicate is idempotent, a lying completion is a conflict with the
// first result kept — and the merged point still matches single-machine.
func TestStaleLeaseAndConflictProtocol(t *testing.T) {
	cfg := baseConfig(rotated3(t))
	golden, err := experiment.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// True per-block counts, computed through the same production seam
	// the worker uses.
	pl, err := experiment.NewPipeline(cfg.Code, cfg.Arch)
	if err != nil {
		t.Fatal(err)
	}
	br, err := pl.NewBlockRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	ttl := time.Minute
	co := fabric.NewCoordinator(fabric.Options{Now: clk.Now, LeaseTTL: ttl})
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	resCh := make(chan *experiment.Result, 1)
	go func() {
		res, err := co.RunPoint(context.Background(), cfg)
		if err != nil {
			t.Errorf("RunPoint: %v", err)
		}
		resCh <- res
	}()
	var jm rawJob
	for jm.Status != "job" {
		rawCall(t, http.MethodGet, srv.URL+"/v1/job", nil, &jm)
	}
	if jm.LeaseTTLMs != ttl.Milliseconds() {
		t.Errorf("advertised lease TTL %dms, configured %v", jm.LeaseTTLMs, ttl)
	}
	lease := func(worker string) rawLease {
		var lm rawLease
		rawCall(t, http.MethodPost, srv.URL+"/v1/lease?job="+jm.Fingerprint+"&worker="+worker, []byte{}, &lm)
		return lm
	}
	complete := func(shard int, leaseID int64, body []byte) rawAck {
		var ack rawAck
		rawCall(t, http.MethodPost,
			fmt.Sprintf("%s/v1/complete?job=%s&shard=%d&lease=%d", srv.URL, jm.Fingerprint, shard, leaseID), body, &ack)
		return ack
	}
	countsFor := func(lm rawLease) []int {
		counts, err := br.CountBlocks(context.Background(), lm.FirstBlock, lm.Blocks)
		if err != nil {
			t.Fatal(err)
		}
		return counts
	}

	// The hog takes shard 0 and hangs (never heartbeats, never completes).
	hog := lease("hog")
	if hog.Status != "lease" || hog.Shard != 0 {
		t.Fatalf("first lease = %+v, want shard 0", hog)
	}
	// Before expiry the shard is off the table; a second worker gets the
	// next one.
	if lm := lease("w1"); lm.Status != "lease" || lm.Shard != 1 {
		t.Fatalf("lease while shard 0 held = %+v, want shard 1", lm)
	}
	// Past the TTL, lease requests reassign shard 0; its heartbeat is
	// dead too.
	clk.Advance(2 * ttl)
	release := lease("w2")
	if release.Status != "lease" || release.Shard != 0 || release.Lease == hog.Lease {
		t.Fatalf("post-expiry lease = %+v, want shard 0 under a fresh lease", release)
	}
	var hb rawAck
	rawCall(t, http.MethodPost, fmt.Sprintf("%s/v1/heartbeat?job=%s&lease=%d", srv.URL, jm.Fingerprint, hog.Lease), []byte{}, &hb)
	if hb.Status != "expired" {
		t.Errorf("heartbeat on a reassigned lease = %q, want expired", hb.Status)
	}
	// The hog wakes up and posts its (correct) result under the stale
	// lease: accepted by content.
	shard0 := countsFor(hog)
	if ack := complete(hog.Shard, hog.Lease, rawCompletion(hog.FirstBlock, shard0)); ack.Status != "ok" {
		t.Errorf("stale-lease completion = %q, want ok (content is correct)", ack.Status)
	}
	// w2 finishes the same shard: identical content, idempotent ok.
	if ack := complete(release.Shard, release.Lease, rawCompletion(release.FirstBlock, shard0)); ack.Status != "ok" {
		t.Errorf("duplicate completion = %q, want idempotent ok", ack.Status)
	}
	// A liar shows up with different counts: conflict, first result kept.
	lie := append([]int(nil), shard0...)
	lie[0] = (lie[0] + 1) % 65
	if ack := complete(hog.Shard, hog.Lease, rawCompletion(hog.FirstBlock, lie)); ack.Status != "conflict" {
		t.Errorf("conflicting completion = %q, want conflict", ack.Status)
	}
	// Drain the rest of the point by hand and check identity end to end.
	for {
		lm := lease("w1")
		// "done" while the job is still posted, or "idle" once RunPoint
		// has already retired it — both mean the point is finished.
		if lm.Status == "done" || lm.Status == "idle" {
			break
		}
		if lm.Status != "lease" {
			t.Fatalf("drain lease = %+v", lm)
		}
		if ack := complete(lm.Shard, lm.Lease, rawCompletion(lm.FirstBlock, countsFor(lm))); ack.Status != "ok" {
			t.Fatalf("drain completion for shard %d = %q", lm.Shard, ack.Status)
		}
	}
	res := <-resCh
	if got, want := summarize(res), summarize(golden); got != want {
		t.Errorf("hand-driven protocol run diverged:\n got %s\nwant %s", got, want)
	}
}

// TestCoordinatorResumesFromLedger: a checkpoint captured mid-run by a
// single-machine sweep seeds the coordinator's ledger; the distributed
// continuation must land on the byte-identical final result and mark
// the point done. A ledger that already says done short-circuits to a
// reconstruction without any workers.
func TestCoordinatorResumesFromLedger(t *testing.T) {
	cfg := baseConfig(rotated3(t))
	golden, err := experiment.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Capture a mid-run commit snapshot from the single-machine engine.
	var snap experiment.Progress
	capCfg := cfg
	capCfg.OnCommit = func(p experiment.Progress) {
		if snap.Blocks == 0 && p.Blocks >= 4 {
			snap = p
		}
	}
	if _, err := experiment.RunContext(context.Background(), capCfg); err != nil {
		t.Fatal(err)
	}
	if snap.Blocks == 0 {
		t.Fatal("no commit snapshot at >= 4 blocks; config too small")
	}
	fp := cfg.Fingerprint()

	dir := t.TempDir()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(checkpoint.Record{Key: fp, Blocks: snap.Blocks, Shots: snap.Shots, Errors: snap.Errors}); err != nil {
		t.Fatal(err)
	}
	res := runFabric(t, cfg, 2, fabric.Options{Store: st, Resume: true}, nil)
	if got, want := summarize(res), summarize(golden); got != want {
		t.Errorf("resumed distributed run diverged:\n got %s\nwant %s", got, want)
	}
	rec, ok := st.Lookup(fp)
	if !ok || !rec.Done || rec.Blocks != golden.Blocks || rec.Errors != golden.LogicalErrors {
		t.Errorf("final ledger record = %+v, want done at blocks=%d errs=%d", rec, golden.Blocks, golden.LogicalErrors)
	}

	// Reopen the ledger cold: the point is done, so RunPoint must answer
	// instantly from the record with zero workers attached.
	st2, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	co := fabric.NewCoordinator(fabric.Options{Now: newFakeClock().Now, Store: st2, Resume: true})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res2, err := co.RunPoint(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := summarize(res2), summarize(golden); got != want {
		t.Errorf("done-record reconstruction diverged:\n got %s\nwant %s", got, want)
	}
}

// TestDoneRecordIsRecomputedWithoutResume: only Resume may answer a
// point from the ledger. Without it, a point whose record says done —
// here a bogus one — is recomputed on the workers like any other, and
// the record is overwritten with the true counts.
func TestDoneRecordIsRecomputedWithoutResume(t *testing.T) {
	cfg := baseConfig(rotated3(t))
	golden, err := experiment.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fp := cfg.Fingerprint()
	if err := st.Put(checkpoint.Record{Key: fp, Blocks: 1, Shots: 64, Errors: 7, Done: true}); err != nil {
		t.Fatal(err)
	}
	res := runFabric(t, cfg, 2, fabric.Options{Store: st}, nil)
	if got, want := summarize(res), summarize(golden); got != want {
		t.Errorf("point without Resume was answered from the ledger:\n got %s\nwant %s", got, want)
	}
	rec, ok := st.Lookup(fp)
	if !ok || !rec.Done || rec.Blocks != golden.Blocks || rec.Shots != golden.Shots || rec.Errors != golden.LogicalErrors {
		t.Errorf("ledger record = %+v, want done at blocks=%d shots=%d errs=%d", rec, golden.Blocks, golden.Shots, golden.LogicalErrors)
	}
}

// TestWorkerRejectsDriftedJob: a coordinator advertising a fingerprint
// that does not match the config it serves (two builds of the engine
// disagreeing) must stop a worker before it decodes a single block.
func TestWorkerRejectsDriftedJob(t *testing.T) {
	cfg := baseConfig(rotated3(t))
	wire, err := fabric.MarshalConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/job", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status": "job", "fingerprint": "not-the-real-fingerprint",
			"config": wire, "lease_ttl_ms": 1000,
		})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	err = fabric.RunWorker(context.Background(), fabric.WorkerOptions{
		URL: srv.URL, ID: "drifted", Poll: time.Millisecond, Patience: 10 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "engine drift") {
		t.Errorf("worker accepted a drifted job (err=%v)", err)
	}
}
