// Partition tolerance, enforced end to end: a coordinator handoff
// (epoch-fenced, ledger-rebuilt), a poisoned shard walked through the
// retry-once-then-quarantine ladder, and every connection-level chaos
// plan must cost latency or an explicitly counted quarantine — never a
// bit of divergence from the single-machine engine. The fencing pin
// speaks raw JSON so the epoch protocol is fixed independently of the
// package's own codec.
package fabric_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fpn/flagproxy/internal/chaos"
	"github.com/fpn/flagproxy/internal/checkpoint"
	"github.com/fpn/flagproxy/internal/experiment"
	"github.com/fpn/flagproxy/internal/fabric"
)

// TestEpochFencingRawProtocol pins the fence itself: with an old
// coordinator at epoch 1 and its successor at epoch 2 both still
// answering (a partition, not a death), traffic stamped with the wrong
// epoch is refused by each side before anything merges — the old
// coordinator provably cannot commit a fleet's work, and a worker still
// loyal to it cannot commit into the successor.
func TestEpochFencingRawProtocol(t *testing.T) {
	cfg := baseConfig(rotated3(t))
	golden, err := experiment.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := experiment.NewPipeline(cfg.Code, cfg.Arch)
	if err != nil {
		t.Fatal(err)
	}
	br, err := pl.NewBlockRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}

	run := func(epoch, failovers int64) (*fabric.Coordinator, *httptest.Server, context.CancelFunc, chan *experiment.Result) {
		co := fabric.NewCoordinator(fabric.Options{Now: newFakeClock().Now, Epoch: epoch, Failovers: failovers})
		srv := httptest.NewServer(co.Handler())
		ctx, cancel := context.WithCancel(context.Background())
		resCh := make(chan *experiment.Result, 1)
		go func() {
			res, err := co.RunPoint(ctx, cfg)
			if err != nil {
				t.Errorf("RunPoint(epoch %d): %v", epoch, err)
			}
			resCh <- res
		}()
		return co, srv, cancel, resCh
	}
	coOld, srvOld, cancelOld, oldRes := run(1, 0)
	defer func() { cancelOld(); <-oldRes; srvOld.Close() }()
	coNew, srvNew, cancelNew, newRes := run(2, 1)
	defer srvNew.Close()
	defer cancelNew()

	var jm rawJob
	for jm.Status != "job" {
		rawCall(t, http.MethodGet, srvOld.URL+"/v1/job", nil, &jm)
	}
	if jm.Epoch != 1 {
		t.Fatalf("old coordinator announces epoch %d, want 1", jm.Epoch)
	}
	var jmNew rawJob
	for jmNew.Status != "job" {
		rawCall(t, http.MethodGet, srvNew.URL+"/v1/job", nil, &jmNew)
	}
	if jmNew.Epoch != 2 {
		t.Fatalf("new coordinator announces epoch %d, want 2", jmNew.Epoch)
	}

	lease := func(srv *httptest.Server, worker string) rawLease {
		var lm rawLease
		rawCall(t, http.MethodPost, srv.URL+"/v1/lease?job="+jm.Fingerprint+"&worker="+worker, []byte{}, &lm)
		return lm
	}
	complete := func(srv *httptest.Server, shard int, leaseID, epoch int64, body []byte) rawAck {
		var ack rawAck
		rawCall(t, http.MethodPost,
			fmt.Sprintf("%s/v1/complete?job=%s&shard=%d&lease=%d&epoch=%d", srv.URL, jm.Fingerprint, shard, leaseID, epoch), body, &ack)
		return ack
	}
	countsFor := func(lm rawLease) []int {
		counts, err := br.CountBlocks(context.Background(), lm.FirstBlock, lm.Blocks)
		if err != nil {
			t.Fatal(err)
		}
		return counts
	}

	// A worker that failed over stamps epoch 2; the partitioned old
	// coordinator must turn the completion away unmerged.
	lmOld := lease(srvOld, "wandering")
	if lmOld.Status != "lease" || lmOld.Epoch != 1 {
		t.Fatalf("old lease = %+v, want a lease at epoch 1", lmOld)
	}
	if ack := complete(srvOld, lmOld.Shard, lmOld.Lease, 2, rawCompletion(lmOld.FirstBlock, countsFor(lmOld))); ack.Status != "stale-epoch" || ack.Epoch != 1 {
		t.Errorf("epoch-2 completion at the epoch-1 coordinator = %+v, want stale-epoch at epoch 1", ack)
	}
	// A worker still loyal to the old coordinator stamps epoch 1; the
	// successor fences it the same way.
	lmNew := lease(srvNew, "loyalist")
	if lmNew.Status != "lease" || lmNew.Epoch != 2 {
		t.Fatalf("new lease = %+v, want a lease at epoch 2", lmNew)
	}
	if ack := complete(srvNew, lmNew.Shard, lmNew.Lease, 1, rawCompletion(lmNew.FirstBlock, countsFor(lmNew))); ack.Status != "stale-epoch" || ack.Epoch != 2 {
		t.Errorf("epoch-1 completion at the epoch-2 coordinator = %+v, want stale-epoch at epoch 2", ack)
	}
	var hb rawAck
	rawCall(t, http.MethodPost, fmt.Sprintf("%s/v1/heartbeat?job=%s&lease=%d&epoch=1", srvNew.URL, jm.Fingerprint, lmNew.Lease), []byte{}, &hb)
	if hb.Status != "stale-epoch" {
		t.Errorf("epoch-1 heartbeat at the epoch-2 coordinator = %q, want stale-epoch", hb.Status)
	}
	// Nothing merged anywhere: both fences held.
	for name, co := range map[string]*fabric.Coordinator{"old": coOld, "new": coNew} {
		st := co.Status()
		if st.ShardsDone != 0 {
			t.Errorf("%s coordinator committed %d shards through the fence", name, st.ShardsDone)
		}
		if st.StaleEpochRejects == 0 {
			t.Errorf("%s coordinator counted no stale-epoch rejects", name)
		}
	}
	if st := coNew.Status(); st.Epoch != 2 || st.Failovers != 1 {
		t.Errorf("successor status = %+v, want epoch 2 after 1 failover", st)
	}

	// Correctly stamped traffic drains the successor to the golden result.
	if ack := complete(srvNew, lmNew.Shard, lmNew.Lease, 2, rawCompletion(lmNew.FirstBlock, countsFor(lmNew))); ack.Status != "ok" {
		t.Fatalf("epoch-2 completion at the epoch-2 coordinator = %+v, want ok", ack)
	}
	for {
		lm := lease(srvNew, "loyalist")
		if lm.Status == "done" || lm.Status == "idle" {
			break
		}
		if lm.Status != "lease" {
			t.Fatalf("drain lease = %+v", lm)
		}
		if ack := complete(srvNew, lm.Shard, lm.Lease, 2, rawCompletion(lm.FirstBlock, countsFor(lm))); ack.Status != "ok" {
			t.Fatalf("drain completion for shard %d = %+v", lm.Shard, ack)
		}
	}
	if got, want := summarize(<-newRes), summarize(golden); got != want {
		t.Errorf("fenced run diverged:\n got %s\nwant %s", got, want)
	}
}

// TestEpochDerivedFromLedger: every coordinator built over the same
// ledger gets the next epoch — restart-in-place fences the predecessor
// with no operator-managed counter.
func TestEpochDerivedFromLedger(t *testing.T) {
	dir := t.TempDir()
	for want := int64(1); want <= 3; want++ {
		st, err := checkpoint.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		co := fabric.NewCoordinator(fabric.Options{Now: newFakeClock().Now, Store: st})
		if got := co.Status().Epoch; got != want {
			t.Fatalf("coordinator %d over the ledger got epoch %d, want %d", want, got, want)
		}
	}
	// Without a ledger the epoch still starts at 1, unfenced restarts.
	co := fabric.NewCoordinator(fabric.Options{Now: newFakeClock().Now})
	if got := co.Status().Epoch; got != 1 {
		t.Errorf("ledgerless coordinator got epoch %d, want 1", got)
	}
}

// TestCoordinatorFailoverIdentity is the end-to-end handoff drill: the
// first coordinator dies mid-sweep after committing a prefix, a standby
// rebuilds from the shared ledger at a bumped epoch, workers fail over
// across the address list (one behind a resetting transport, one
// leaving mid-point), and the merged result is byte-identical to the
// single-machine engine.
func TestCoordinatorFailoverIdentity(t *testing.T) {
	cfg := baseConfig(rotated3(t))
	golden, err := experiment.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st1, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Coordinator A commits at every block so its ledger holds the full
	// prefix when it "dies" (context cancel + listener close).
	coA := fabric.NewCoordinator(fabric.Options{Now: newFakeClock().Now, Store: st1, Resume: true, CheckpointEvery: 1})
	srvA := httptest.NewServer(coA.Handler())
	ctxA, cancelA := context.WithCancel(context.Background())
	resA := make(chan *experiment.Result, 1)
	go func() {
		res, err := coA.RunPoint(ctxA, cfg)
		if err != nil {
			t.Errorf("RunPoint A: %v", err)
		}
		resA <- res
	}()
	if err := fabric.RunWorker(context.Background(), fabric.WorkerOptions{
		URL: srvA.URL, ID: "prefix-worker", Poll: time.Millisecond, MaxShards: 3,
	}); err != nil {
		t.Fatalf("prefix worker: %v", err)
	}
	cancelA()
	partial := <-resA
	srvA.Close()
	if partial.Blocks == 0 || !partial.Interrupted {
		t.Fatalf("coordinator A died with %d blocks committed (interrupted=%t); the handoff would be trivial", partial.Blocks, partial.Interrupted)
	}

	// The standby rebuilds from the ledger: bumped epoch, resumed
	// frontier, counted failover.
	st2, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coB := fabric.NewCoordinator(fabric.Options{Now: newFakeClock().Now, Store: st2, Resume: true, Failovers: 1})
	if got := coB.Status().Epoch; got != 2 {
		t.Fatalf("promoted standby got epoch %d, want 2 (ledger held 1)", got)
	}
	srvB := httptest.NewServer(coB.Handler())
	defer srvB.Close()

	// Two workers, both pointed at the dead primary first: worker 0 also
	// rides a mid-body reset plan on its completions, worker 1 leaves
	// after two shards (churn). Both must rotate to the standby.
	reset := &chaos.NetFault{Plan: chaos.Plan{Seed: 21, Name: "failover-reset"}, Mode: chaos.NetReset, Times: 1, Path: "/v1/complete"}
	var wg sync.WaitGroup
	werrs := make([]error, 2)
	wopts := []fabric.WorkerOptions{
		{URL: srvA.URL, URLs: []string{srvB.URL}, ID: "rider", Poll: time.Millisecond,
			Client: &http.Client{Transport: reset, Timeout: 30 * time.Second}},
		{URL: srvA.URL, URLs: []string{srvB.URL}, ID: "churner", Poll: time.Millisecond, MaxShards: 2},
	}
	for i, opt := range wopts {
		wg.Add(1)
		go func(i int, opt fabric.WorkerOptions) {
			defer wg.Done()
			werrs[i] = fabric.RunWorker(context.Background(), opt)
		}(i, opt)
	}
	res, err := coB.RunPoint(context.Background(), cfg)
	coB.Shutdown()
	wg.Wait()
	if err != nil {
		t.Fatalf("RunPoint B: %v", err)
	}
	for i, werr := range werrs {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	if reset.Resets.Load() == 0 {
		t.Error("reset plan cut nothing; the chaos leg is vacuous")
	}
	if got, want := summarize(res), summarize(golden); got != want {
		t.Errorf("failed-over run diverged:\n got %s\nwant %s", got, want)
	}
	rec, ok := st2.Lookup(cfg.Fingerprint())
	if !ok || !rec.Done || rec.Blocks != golden.Blocks {
		t.Errorf("ledger after failover = %+v, want done at %d blocks", rec, golden.Blocks)
	}
}

// TestPoisonShardQuarantine drives the ladder by hand: a shard
// abandoned by three distinct workers gets exactly one fallback-flagged
// retry, is quarantined with a repro line in the ledger when that is
// abandoned too, and the point finishes on the committed prefix — no
// crash-loop, no reassignment forever, no lease past the quarantine
// hole, and a late completion for the quarantined shard can no longer
// commit.
func TestPoisonShardQuarantine(t *testing.T) {
	cfg := baseConfig(rotated3(t))
	pl, err := experiment.NewPipeline(cfg.Code, cfg.Arch)
	if err != nil {
		t.Fatal(err)
	}
	br, err := pl.NewBlockRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co := fabric.NewCoordinator(fabric.Options{Now: newFakeClock().Now, Store: st})
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
	lease := func(worker string) rawLease {
		var lm rawLease
		rawCall(t, http.MethodPost, srv.URL+"/v1/lease?job="+jm.Fingerprint+"&worker="+worker, []byte{}, &lm)
		return lm
	}
	complete := func(shard int, leaseID int64, body []byte) rawAck {
		var ack rawAck
		rawCall(t, http.MethodPost,
			fmt.Sprintf("%s/v1/complete?job=%s&shard=%d&lease=%d&epoch=%d", srv.URL, jm.Fingerprint, shard, leaseID, jm.Epoch), body, &ack)
		return ack
	}
	abandon := func(lm rawLease, worker, reason string) rawAck {
		var ack rawAck
		rawCall(t, http.MethodPost,
			fmt.Sprintf("%s/v1/abandon?job=%s&shard=%d&lease=%d&worker=%s&epoch=%d&reason=%s",
				srv.URL, jm.Fingerprint, lm.Shard, lm.Lease, worker, jm.Epoch, reason), []byte{}, &ack)
		return ack
	}
	countsFor := func(lm rawLease) []int {
		counts, err := br.CountBlocks(context.Background(), lm.FirstBlock, lm.Blocks)
		if err != nil {
			t.Fatal(err)
		}
		return counts
	}

	// Shards 0 and 1 are the committed prefix the point must finish on.
	// Shard 0 completes now; shard 1 stays under a live lease (the fake
	// clock never moves) so the point is still open when shard 2 goes.
	first := lease("healthy")
	if first.Status != "lease" || first.Shard != 0 {
		t.Fatalf("setup lease = %+v, want shard 0", first)
	}
	if ack := complete(first.Shard, first.Lease, rawCompletion(first.FirstBlock, countsFor(first))); ack.Status != "ok" {
		t.Fatalf("setup completion = %+v", ack)
	}
	slow := lease("slow")
	if slow.Status != "lease" || slow.Shard != 1 {
		t.Fatalf("setup lease = %+v, want shard 1", slow)
	}
	// Three distinct workers walk away from shard 2: the ladder arms.
	var poisoned rawLease
	for _, w := range []string{"crasher-a", "crasher-b", "crasher-c"} {
		lm := lease(w)
		if lm.Status != "lease" || lm.Shard != 2 || lm.Fallback {
			t.Fatalf("lease for %s = %+v, want a normal lease on shard 2", w, lm)
		}
		if ack := abandon(lm, w, "panic:+matcher+blew+up"); ack.Status != "ok" {
			t.Fatalf("abandon by %s = %+v", w, ack)
		}
		poisoned = lm
	}
	// Third lease is the one fallback-flagged retry.
	fb := lease("rescuer")
	if fb.Status != "lease" || fb.Shard != 2 || !fb.Fallback {
		t.Fatalf("post-threshold lease = %+v, want a fallback-flagged lease on shard 2", fb)
	}
	if st := co.Status(); st.FallbackRetries != 1 {
		t.Fatalf("FallbackRetries = %d, want 1", st.FallbackRetries)
	}
	// The retry fails too: quarantine, on the spot.
	if ack := abandon(fb, "rescuer", "panic:+fallback+blew+up+too"); ack.Status != "ok" {
		t.Fatalf("fallback abandon = %+v", ack)
	}
	if st := co.Status(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	// Shard 2 is off the table and nothing past it can commit, so with
	// shard 1 still leased there is nothing to hand out; a late
	// (correct!) completion for shard 2 can no longer commit.
	if next := lease("healthy"); next.Status != "wait" {
		t.Fatalf("post-quarantine lease = %+v, want wait (no lease past the quarantine hole)", next)
	}
	if ack := complete(poisoned.Shard, poisoned.Lease, rawCompletion(poisoned.FirstBlock, countsFor(poisoned))); ack.Status != "idle" {
		t.Errorf("late completion for a quarantined shard = %+v, want idle (not merged)", ack)
	}
	// Shard 1 lands; the point must settle on the prefix before the
	// quarantine hole.
	if ack := complete(slow.Shard, slow.Lease, rawCompletion(slow.FirstBlock, countsFor(slow))); ack.Status != "ok" {
		t.Fatalf("shard 1 completion = %+v", ack)
	}
	if lm := lease("healthy"); lm.Status != "done" && lm.Status != "idle" {
		t.Fatalf("lease after the prefix settled = %+v, want done or idle", lm)
	}
	res := <-resCh
	if res.Blocks != 2 || res.Shots != 128 {
		t.Errorf("quarantined point committed blocks=%d shots=%d, want the 2-block prefix (128 shots)", res.Blocks, res.Shots)
	}
	if len(res.ShardErrors) != 1 {
		t.Fatalf("ShardErrors = %v, want exactly the quarantined shard", res.ShardErrors)
	}
	se := res.ShardErrors[0]
	if se.Shard != 2 || se.FirstBlock != 2 || se.Seed != cfg.Seed || !strings.Contains(fmt.Sprint(se.PanicValue), "fallback blew up too") {
		t.Errorf("quarantine repro = %+v, want shard 2 at block 2 with the last failure", se)
	}
	// The ledger holds both the resumable (not Done) prefix record and
	// the quarantine repro line.
	rec, ok := st.Lookup(jm.Fingerprint)
	if !ok || rec.Done || rec.Blocks != 2 {
		t.Errorf("ledger record = %+v (ok=%t), want a not-done 2-block prefix", rec, ok)
	}
	repro, ok := st.Meta("quarantine:" + jm.Fingerprint + ":2")
	if !ok || !strings.Contains(repro, "first=2") || !strings.Contains(repro, "workers=4") || !strings.Contains(repro, "events=4") {
		t.Errorf("quarantine repro line = %q (ok=%t), want 4 abandonments (every crasher and the rescuer) at first=2", repro, ok)
	}
}

// TestWorkerFallbackLease pins the worker half of the ladder: a
// fallback-flagged lease is decoded with the worker's fallback chain
// and the completion names the rescuing decoder and echoes the epoch.
func TestWorkerFallbackLease(t *testing.T) {
	cfg := baseConfig(rotated3(t))
	fp := cfg.Fingerprint()
	wire, err := fabric.MarshalConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The counts a plain-mwpm decode of shard 0 must produce, built
	// through the same production seam the worker uses.
	fbCfg := cfg
	fbCfg.Decoder = experiment.PlainMWPM
	pl, err := experiment.NewPipeline(cfg.Code, cfg.Arch)
	if err != nil {
		t.Fatal(err)
	}
	fbr, err := pl.NewBlockRunner(fbCfg)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts, err := fbr.CountBlocks(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var gotDec, gotEpoch string
	var gotBody []byte
	leased := false
	completed := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/job", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		done := gotBody != nil
		mu.Unlock()
		status := "job"
		if done {
			status = "shutdown"
		}
		fmt.Fprintf(w, `{"status":%q,"fingerprint":%q,"config":%s,"lease_ttl_ms":60000,"epoch":5}`,
			status, fp, mustJSON(t, wire))
	})
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if leased {
			fmt.Fprint(w, `{"status":"done"}`)
			return
		}
		leased = true
		fmt.Fprint(w, `{"status":"lease","lease":9,"shard":0,"first_block":0,"blocks":2,"epoch":5,"fallback":true}`)
	})
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/complete", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		gotDec, gotEpoch, gotBody = r.URL.Query().Get("dec"), r.URL.Query().Get("epoch"), body
		mu.Unlock()
		close(completed)
		fmt.Fprint(w, `{"status":"ok","epoch":5}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	err = fabric.RunWorker(context.Background(), fabric.WorkerOptions{
		URL: srv.URL, ID: "rescuer", Poll: time.Millisecond,
		Fallback: []experiment.DecoderKind{experiment.PlainMWPM},
	})
	if err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	<-completed
	mu.Lock()
	defer mu.Unlock()
	if gotDec != "plain-mwpm" {
		t.Errorf("completion dec = %q, want plain-mwpm (the rescuing decoder)", gotDec)
	}
	if gotEpoch != "5" {
		t.Errorf("completion epoch = %q, want the announced 5 echoed back", gotEpoch)
	}
	if want := rawCompletion(0, wantCounts); string(gotBody) != string(want) {
		t.Errorf("fallback completion body diverged from a direct plain-mwpm decode:\n got %q\nwant %q", gotBody, want)
	}
}

// TestWorkerAbandonsUndecodableShard pins the worker's failure path: a
// leased shard its runner cannot count is handed back through
// /v1/abandon with the failure as the reason, every time it is leased —
// the coordinator's ladder is the only strike counter — and the worker
// keeps polling instead of exiting.
func TestWorkerAbandonsUndecodableShard(t *testing.T) {
	cfg := baseConfig(rotated3(t))
	fp := cfg.Fingerprint()
	wire, err := fabric.MarshalConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const leases = 3
	var mu sync.Mutex
	var reasons []string
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/job", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		status := "job"
		if len(reasons) >= leases {
			status = "shutdown"
		}
		mu.Unlock()
		fmt.Fprintf(w, `{"status":%q,"fingerprint":%q,"config":%s,"lease_ttl_ms":60000,"epoch":5}`,
			status, fp, mustJSON(t, wire))
	})
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		// The shard's blocks lie past the run's end, so no decoder can
		// count them.
		fmt.Fprintf(w, `{"status":"lease","lease":%d,"shard":7,"first_block":1000000,"blocks":1,"epoch":5}`, len(reasons)+1)
	})
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/abandon", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		mu.Lock()
		if q.Get("shard") != "7" || q.Get("lease") != fmt.Sprint(len(reasons)+1) || q.Get("worker") != "stuck" {
			t.Errorf("abandon query = %v, want shard 7, lease %d, worker stuck", q, len(reasons)+1)
		}
		reasons = append(reasons, q.Get("reason"))
		mu.Unlock()
		fmt.Fprint(w, `{"status":"ok","epoch":5}`)
	})
	mux.HandleFunc("POST /v1/complete", func(w http.ResponseWriter, r *http.Request) {
		t.Errorf("an undecodable shard was completed: %v", r.URL.Query())
		fmt.Fprint(w, `{"status":"ok","epoch":5}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	if err := fabric.RunWorker(context.Background(), fabric.WorkerOptions{URL: srv.URL, ID: "stuck", Poll: time.Millisecond}); err != nil {
		t.Fatalf("RunWorker: %v (a decode failure must not end the worker)", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reasons) != leases {
		t.Fatalf("worker abandoned %d times, want once per lease (%d)", len(reasons), leases)
	}
	for i, reason := range reasons {
		if !strings.Contains(reason, "outside the run's") {
			t.Errorf("abandon %d reason = %q, want the decode failure", i, reason)
		}
	}
}

// TestNetFaultPlansIdentity is the acceptance matrix: each
// connection-level fault shape, bounded so the partition heals, must
// leave the merged result byte-identical to the single-machine engine.
func TestNetFaultPlansIdentity(t *testing.T) {
	cfg := baseConfig(rotated3(t))
	golden, err := experiment.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(golden)
	plans := []struct {
		name  string
		fault *chaos.NetFault
		hit   func(f *chaos.NetFault) int64
	}{
		{"refuse", &chaos.NetFault{Plan: chaos.Plan{Seed: 31, Name: "net-refuse"}, Mode: chaos.NetRefuse, Times: 3},
			func(f *chaos.NetFault) int64 { return f.Refused.Load() }},
		{"reset", &chaos.NetFault{Plan: chaos.Plan{Seed: 32, Name: "net-reset"}, Mode: chaos.NetReset, Times: 2, Path: "/v1/complete"},
			func(f *chaos.NetFault) int64 { return f.Resets.Load() }},
		{"blackhole", &chaos.NetFault{Plan: chaos.Plan{Seed: 33, Name: "net-blackhole"}, Mode: chaos.NetBlackhole, Times: 2},
			func(f *chaos.NetFault) int64 { return f.Blackholed.Load() }},
		{"trickle", &chaos.NetFault{Plan: chaos.Plan{Seed: 34, Name: "net-trickle"}, Mode: chaos.NetTrickle, Every: 2},
			func(f *chaos.NetFault) int64 { return f.Trickled.Load() }},
	}
	for _, p := range plans {
		t.Run(p.name, func(t *testing.T) {
			// Worker 1 is healthy but held back until the plan has
			// attacked worker 0, so it cannot settle every shard first
			// and leave the plan nothing to attack.
			held := holdUntil{hit: func() bool { return p.hit(p.fault) > 0 }, wait: 10 * time.Second}
			res := runFabric(t, cfg, 2, fabric.Options{}, func(i int) fabric.WorkerOptions {
				if i == 0 {
					return fabric.WorkerOptions{Client: &http.Client{Transport: p.fault, Timeout: 30 * time.Second}}
				}
				return fabric.WorkerOptions{Client: &http.Client{Transport: held, Timeout: 30 * time.Second}}
			})
			if p.hit(p.fault) == 0 {
				t.Errorf("%s plan attacked nothing; the test is vacuous", p.name)
			}
			if got := summarize(res); got != want {
				t.Errorf("%s plan diverged:\n got %s\nwant %s", p.name, got, want)
			}
		})
	}
}

// holdUntil is a RoundTripper that holds each request until hit reports
// true or wait has passed, then sends it on http.DefaultTransport.
type holdUntil struct {
	hit  func() bool
	wait time.Duration
}

func (h holdUntil) RoundTrip(req *http.Request) (*http.Response, error) {
	for deadline := time.Now().Add(h.wait); !h.hit() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestWorkerMaxRetriesUnreachable: with a bounded retry budget and
// nobody answering on any address, the worker exits with the
// ErrUnreachable signal — the non-130 exit path — instead of retrying
// forever.
func TestWorkerMaxRetriesUnreachable(t *testing.T) {
	var naps int
	err := fabric.RunWorker(context.Background(), fabric.WorkerOptions{
		// Reserved port on localhost: refused instantly, never flaky-slow.
		URL: "http://127.0.0.1:1", URLs: []string{"http://127.0.0.1:1"},
		ID: "stranded", Poll: time.Millisecond, MaxRetries: 3,
		Sleep: func(time.Duration) { naps++ },
	})
	if !errors.Is(err, fabric.ErrUnreachable) {
		t.Fatalf("stranded worker returned %v, want ErrUnreachable", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error %q does not name the exhausted budget", err)
	}
	if naps == 0 {
		t.Error("retry loop never backed off between attempts")
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
