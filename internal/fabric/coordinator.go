// The coordinator side of the fabric: leases out the frontier's shard
// plan — the one the local engine's workers claim — and owns the lease
// table and the commit frontier of one sweep point at a time, exposing
// them over its HTTP endpoints. All result-affecting state flows
// through experiment.Frontier: a completion is settled on it and a
// quarantine fails the shard on it, exactly as the local engine settles
// its shards, and it assembles the point's Result. The clock only ever
// decides when an unfinished shard may be handed to another worker, and
// recomputing a shard is idempotent by determinism — so any
// lease-expiry schedule yields the same merged result.
package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fpn/flagproxy/internal/checkpoint"
	"github.com/fpn/flagproxy/internal/experiment"
)

// Options configures a Coordinator. The zero value serves on the real
// clock with a 30-second lease TTL and no checkpoint ledger.
type Options struct {
	// Now supplies the clock for lease bookkeeping; nil means the wall
	// clock. The chaos and identity suites inject a fake clock here so
	// every expiry schedule is reproducible.
	Now func() time.Time
	// LeaseTTL is how long a granted shard lease lives without a
	// heartbeat or completion before it may be reassigned; 0 means 30s.
	LeaseTTL time.Duration
	// Store, when non-nil, is the fingerprint-keyed checkpoint ledger
	// the coordinator merges committed progress into.
	Store *checkpoint.Store
	// Resume continues points from the ledger's committed prefix
	// instead of restarting them.
	Resume bool
	// CheckpointEvery is the ledger write cadence in committed blocks;
	// 0 means checkpoint.DefaultEvery.
	CheckpointEvery int
	// Log, when non-nil, receives one-line operational notes (lease
	// reassignments, conflicting completions, checkpoint errors).
	Log io.Writer
	// Epoch forces the coordinator's fencing epoch; 0 derives it from
	// the ledger (last persisted epoch + 1) or defaults to 1 without a
	// Store. Leases carry the epoch, and completions/heartbeats fenced
	// with a different one are rejected — a partitioned predecessor can
	// never commit into a successor's frontier.
	Epoch int64
	// Failovers records how many coordinator handoffs preceded this
	// one; a promoted standby passes its takeover count, and the value
	// is reported verbatim on /v1/status.
	Failovers int64
}

// poisonAfter is the distinct-worker abandonment threshold at which a
// shard is suspected poisoned: it then gets exactly one fallback-flagged
// retry lease and is quarantined if that fails too, instead of
// crash-looping across the fleet forever. Twice the threshold in total
// abandonment events also trips it, so a single-worker fleet cannot
// livelock below the distinct count.
const poisonAfter = 3

// defaultNow is the production clock.
//
//fpnvet:wallclock lease TTLs only gate shard reassignment; recomputation is idempotent
func defaultNow() time.Time { return time.Now() }

// Coordinator distributes sweep points to workers. Serve its Handler
// somewhere, then call RunPoint once per point (sequentially — one
// point is in flight at a time, matching the single-machine sweep
// order) and Shutdown when the sweep is over so workers exit.
type Coordinator struct {
	now       func() time.Time  //fpnvet:unguarded immutable after NewCoordinator
	ttl       time.Duration     //fpnvet:unguarded immutable after NewCoordinator
	ledger    checkpoint.Ledger //fpnvet:unguarded immutable after NewCoordinator
	log       io.Writer
	epoch     int64 //fpnvet:unguarded immutable after NewCoordinator
	failovers int64 //fpnvet:unguarded immutable after NewCoordinator

	staleRejects atomic.Int64 // completions/heartbeats fenced off by epoch
	reassigns    atomic.Int64 // expired leases handed to another worker
	fbRetries    atomic.Int64 // poison-suspect shards granted a fallback lease
	quarantined  atomic.Int64 // shards quarantined after the fallback retry failed

	mu       sync.Mutex
	job      *job  //fpnvet:guardedby mu
	leaseSeq int64 //fpnvet:guardedby mu
	shutdown bool  //fpnvet:guardedby mu
}

// job is one sweep point in flight.
type job struct {
	fp     string
	wire   *WireConfig
	cfg    experiment.Config
	fr     *experiment.Frontier
	shards []shardState
	done   chan struct{}
	closed bool
}

// shardState is the lease table entry of one contiguous block range.
type shardState struct {
	first  int
	blocks int
	done   bool
	digest uint32
	lease  int64 // 0 = unleased
	worker string
	expiry time.Time

	// Poison-shard bookkeeping: which distinct workers walked away from
	// this shard (lease expiry or explicit abandon), how many times in
	// total, the last reported failure, and where the shard stands on
	// the retry-once-then-quarantine ladder.
	abandons    map[string]bool
	events      int
	lastErr     string
	fallbackTry bool
	quarantined bool
}

// epochMetaKey is the ledger annotation persisting the highest
// coordinator epoch ever to own the store.
const epochMetaKey = "fabric-epoch"

// NewCoordinator builds a Coordinator from opt. When a Store is
// configured, the fencing epoch is read from the ledger, bumped and
// persisted — a restarted or promoted coordinator automatically fences
// out its predecessor's traffic.
func NewCoordinator(opt Options) *Coordinator {
	now := opt.Now
	if now == nil {
		now = defaultNow
	}
	ttl := opt.LeaseTTL
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	c := &Coordinator{now: now, ttl: ttl, log: opt.Log, failovers: opt.Failovers}
	c.ledger = checkpoint.Ledger{
		Store: opt.Store, Resume: opt.Resume, Every: opt.CheckpointEvery,
		Report: func(err error) { c.logf("checkpoint: %v", err) },
	}
	c.epoch = opt.Epoch
	if c.epoch == 0 {
		c.epoch = 1
		if opt.Store != nil {
			if prev, ok := opt.Store.Meta(epochMetaKey); ok {
				if n, err := strconv.ParseInt(prev, 10, 64); err == nil && n > 0 {
					c.epoch = n + 1
				}
			}
		}
	}
	if opt.Store != nil {
		if err := opt.Store.SetMeta(epochMetaKey, strconv.FormatInt(c.epoch, 10)); err != nil {
			c.logf("persisting epoch %d: %v", c.epoch, err)
		}
	}
	return c
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.log != nil {
		fmt.Fprintf(c.log, "fabric: "+format+"\n", args...)
	}
}

// Handler returns the coordinator's HTTP surface.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/job", c.handleJob)
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/complete", c.handleComplete)
	mux.HandleFunc("POST /v1/abandon", c.handleAbandon)
	mux.HandleFunc("GET /v1/status", c.handleStatus)
	return mux
}

// epochOK fences a request's echoed epoch: empty is accepted unfenced
// (hand-driven debugging clients), anything else must match exactly —
// both a fenced-out predecessor and a worker still loyal to one are
// turned away the same way.
func (c *Coordinator) epochOK(epoch string) bool {
	if epoch == "" {
		return true
	}
	n, err := strconv.ParseInt(epoch, 10, 64)
	if err == nil && n == c.epoch {
		return true
	}
	c.staleRejects.Add(1)
	return false
}

// writeJSON and badRequest are the handlers' only response writers, and
// every handler computes its reply under c.mu, releases, then writes —
// a slow or dead client must never stall lease bookkeeping for the
// workers that are still making progress.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	// An encode failure here means the client is gone; it re-polls.
	//fpnvet:nodeadline bounded by the serving http.Server WriteTimeout (cmd/ber arms one)
	_ = json.NewEncoder(w).Encode(v)
}

func badRequest(w http.ResponseWriter, msg string) {
	//fpnvet:nodeadline bounded by the serving http.Server WriteTimeout (cmd/ber arms one)
	http.Error(w, msg, http.StatusBadRequest)
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.jobPoll())
}

// jobPoll snapshots the current job announcement under the lock.
func (c *Coordinator) jobPoll() jobMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.shutdown:
		return jobMsg{Status: statusShutdown}
	case c.job == nil:
		return jobMsg{Status: statusIdle}
	}
	return jobMsg{
		Status: statusJob, Fingerprint: c.job.fp,
		Config: c.job.wire, LeaseTTLMs: c.ttl.Milliseconds(),
		Epoch: c.epoch,
	}
}

// handleLease grants the lowest-index shard that is not done, not under
// a live lease and before the frontier's commit limit. Expiry is
// evaluated lazily right here — never from background timers — so
// tests drive any schedule via the injected clock, and an
// expired-then-completed shard still merges (completion is validated by
// content, not by lease liveness).
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.grantLease(r.URL.Query().Get("worker"), r.URL.Query().Get("job")))
}

// grantLease does the lease-table walk under the lock and returns the
// reply for the handler to write after release. An expired lease is a
// walk-away like an explicit abandon; a shard past the abandonment
// threshold gets exactly one fallback-flagged retry. Shards at or past
// the commit limit are never leased: nothing there can commit.
func (c *Coordinator) grantLease(worker, fp string) leaseMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shutdown {
		return leaseMsg{Status: statusShutdown}
	}
	jb := c.job
	if jb == nil || jb.fp != fp {
		return leaseMsg{Status: statusIdle}
	}
	if c.settledLocked(jb) {
		return leaseMsg{Status: statusDone}
	}
	now := c.now()
	for i := range jb.shards {
		sh := &jb.shards[i]
		if sh.done || sh.first >= jb.fr.Limit() || (sh.lease != 0 && sh.expiry.After(now)) {
			continue
		}
		if sh.lease != 0 {
			c.logf("lease %d on shard %d (worker %s) expired; reassigning to %s", sh.lease, i, sh.worker, worker)
			c.reassigns.Add(1)
			if c.walkAwayLocked(jb, i, sh.worker, "lease expired") {
				continue
			}
		}
		fallback := poisoned(sh)
		if fallback {
			sh.fallbackTry = true
			c.fbRetries.Add(1)
			c.logf("shard %d abandoned %d times by %d workers; granting %s one fallback retry",
				i, sh.events, len(sh.abandons), worker)
		}
		c.leaseSeq++
		sh.lease, sh.worker, sh.expiry = c.leaseSeq, worker, now.Add(c.ttl)
		return leaseMsg{
			Status: statusLease, Lease: sh.lease, Shard: i,
			FirstBlock: sh.first, Blocks: sh.blocks,
			Epoch: c.epoch, Fallback: fallback,
		}
	}
	if c.settledLocked(jb) {
		return leaseMsg{Status: statusDone}
	}
	return leaseMsg{Status: statusWait}
}

// walkAwayLocked is the one step of the poison ladder, taken when the
// worker holding shard i's lease walks away — its lease expired, or it
// abandoned the shard. It releases the lease, records the strike and
// quarantines the shard if and only if this was its fallback lease,
// reporting whether it did. Caller holds c.mu.
func (c *Coordinator) walkAwayLocked(jb *job, i int, worker, reason string) bool {
	sh := &jb.shards[i]
	sh.lease = 0
	if sh.abandons == nil {
		sh.abandons = make(map[string]bool)
	}
	if worker != "" {
		sh.abandons[worker] = true
	}
	sh.events++
	if reason != "" {
		sh.lastErr = reason
	}
	if !sh.fallbackTry {
		return false
	}
	c.quarantineLocked(jb, i, sh)
	return true
}

// poisoned reports whether a shard has crossed the abandonment
// threshold: poisonAfter distinct workers, or twice that in total
// events. Caller holds c.mu.
func poisoned(sh *shardState) bool {
	return len(sh.abandons) >= poisonAfter || sh.events >= 2*poisonAfter
}

// quarantineLocked writes a shard off: it fails the shard on the
// frontier, which lowers the commit limit so the point ends on the
// prefix before it and keeps the ShardError for the Result, and a repro
// line lands in the ledger so the shard can be replayed offline (same
// fingerprint, same first block — determinism makes the repro exact).
// The point ends here if that prefix is already committed. Caller
// holds c.mu.
func (c *Coordinator) quarantineLocked(jb *job, i int, sh *shardState) {
	sh.quarantined = true
	c.quarantined.Add(1)
	out := experiment.Outcome[[]int]{
		Verdict: experiment.VerdictFailed, Kind: jb.cfg.Decoder,
		Fault: &experiment.Fault{Value: sh.lastErr},
	}
	jb.fr.Fail(experiment.NewShardError(jb.cfg, i, sh.first, sh.blocks, out))
	c.logf("quarantining shard %d (blocks %d+%d) after %d abandonments by %d workers; last error: %s",
		i, sh.first, sh.blocks, sh.events, len(sh.abandons), sh.lastErr)
	if st := c.ledger.Store; st != nil {
		key := "quarantine:" + jb.fp + ":" + strconv.Itoa(sh.first)
		val := fmt.Sprintf("shard=%d first=%d blocks=%d seed=%d decoder=%s events=%d workers=%d err=%q",
			i, sh.first, sh.blocks, jb.cfg.Seed, jb.cfg.Decoder, sh.events, len(sh.abandons), sh.lastErr)
		if err := st.SetMeta(key, val); err != nil {
			c.logf("recording quarantine repro: %v", err)
		}
	}
	c.settledLocked(jb)
}

// settledLocked ends the point when the frontier is done — the
// committed prefix reached the commit limit, or a stop criterion fired
// — and reports whether it is. Caller holds c.mu.
func (c *Coordinator) settledLocked(jb *job) bool {
	if !jb.fr.Done() {
		return false
	}
	if !jb.closed {
		jb.closed = true
		close(jb.done)
	}
	return true
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	fp := r.URL.Query().Get("job")
	lease, err := strconv.ParseInt(r.URL.Query().Get("lease"), 10, 64)
	if err != nil {
		badRequest(w, "bad lease id")
		return
	}
	writeJSON(w, c.renewLease(fp, lease, r.URL.Query().Get("epoch")))
}

func (c *Coordinator) renewLease(fp string, lease int64, epoch string) ackMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.epochOK(epoch) {
		return ackMsg{Status: statusStaleEpoch, Epoch: c.epoch}
	}
	jb := c.job
	if jb == nil || jb.fp != fp {
		return ackMsg{Status: statusExpired}
	}
	for i := range jb.shards {
		sh := &jb.shards[i]
		if sh.lease == lease && !sh.done {
			// Still assigned, so still ours: a heartbeat renews even a
			// lapsed lease as long as no one else claimed the shard.
			sh.expiry = c.now().Add(c.ttl)
			return ackMsg{Status: statusOK}
		}
	}
	return ackMsg{Status: statusExpired}
}

// handleAbandon releases a lease the worker cannot finish (decode
// failure, orderly shutdown mid-shard) so the shard recycles
// immediately instead of waiting out the TTL; it is the same walk-away
// step as a lease expiry, so an abandoned fallback retry quarantines the
// shard on the spot.
func (c *Coordinator) handleAbandon(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	shardIdx, err := strconv.Atoi(q.Get("shard"))
	if err != nil {
		badRequest(w, "bad shard index")
		return
	}
	lease, err := strconv.ParseInt(q.Get("lease"), 10, 64)
	if err != nil {
		badRequest(w, "bad lease id")
		return
	}
	writeJSON(w, c.abandonShard(q.Get("job"), shardIdx, lease, q.Get("worker"), q.Get("epoch"), q.Get("reason")))
}

func (c *Coordinator) abandonShard(fp string, shardIdx int, lease int64, worker, epoch, reason string) ackMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.epochOK(epoch) {
		return ackMsg{Status: statusStaleEpoch, Epoch: c.epoch}
	}
	jb := c.job
	if jb == nil || jb.fp != fp {
		return ackMsg{Status: statusIdle}
	}
	if shardIdx < 0 || shardIdx >= len(jb.shards) {
		return ackMsg{Status: statusExpired}
	}
	sh := &jb.shards[shardIdx]
	if sh.done || sh.quarantined || sh.lease != lease {
		return ackMsg{Status: statusExpired}
	}
	c.logf("worker %s abandoned shard %d: %s", worker, shardIdx, reason)
	c.walkAwayLocked(jb, shardIdx, worker, reason)
	return ackMsg{Status: statusOK, Epoch: c.epoch}
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.Status())
}

// Status snapshots the coordinator's identity and resilience counters —
// what a standby probes to decide the primary is alive, and what an
// operator reads to see fencing and quarantine at work.
func (c *Coordinator) Status() statusMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	msg := statusMsg{
		Status:            statusIdle,
		Epoch:             c.epoch,
		Quarantined:       c.quarantined.Load(),
		StaleEpochRejects: c.staleRejects.Load(),
		LeaseReassigns:    c.reassigns.Load(),
		FallbackRetries:   c.fbRetries.Load(),
		Failovers:         c.failovers,
	}
	if c.shutdown {
		msg.Status = statusShutdown
	}
	if jb := c.job; jb != nil {
		msg.Status, msg.Fingerprint, msg.ShardsTotal = statusJob, jb.fp, len(jb.shards)
		for i := range jb.shards {
			if jb.shards[i].done {
				msg.ShardsDone++
			}
		}
	}
	return msg
}

// handleComplete merges one shard's streamed counts. The stream is
// fully validated before anything is merged — a torn body is a 400 and
// the worker resends. Completions are accepted by content for the
// job's shard range regardless of lease liveness (a stale worker's
// correct result is still correct); a duplicate completion is
// idempotent when its digest matches and a reported conflict when it
// does not, with the first completion winning.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	fp := r.URL.Query().Get("job")
	shardIdx, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		badRequest(w, "bad shard index")
		return
	}
	//fpnvet:nodeadline bounded by the serving http.Server ReadTimeout (cmd/ber arms one)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		badRequest(w, "torn result stream: "+err.Error())
		return
	}
	ack, errMsg := c.mergeShard(fp, shardIdx, r.URL.Query().Get("epoch"), r.URL.Query().Get("dec"), body)
	if errMsg != "" {
		badRequest(w, errMsg)
		return
	}
	writeJSON(w, ack)
}

// mergeShard validates and merges one completion under the lock; a
// non-empty second return is a 400 for the handler to send. The epoch
// fence comes first: a completion from a worker still fenced to a
// previous coordinator is rejected before its content is even parsed.
func (c *Coordinator) mergeShard(fp string, shardIdx int, epoch, dec string, body []byte) (ackMsg, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.epochOK(epoch) {
		return ackMsg{Status: statusStaleEpoch, Epoch: c.epoch}, ""
	}
	jb := c.job
	if jb == nil || jb.fp != fp {
		// The point is gone (finished or superseded); nothing to merge.
		return ackMsg{Status: statusIdle}, ""
	}
	if shardIdx < 0 || shardIdx >= len(jb.shards) {
		return ackMsg{}, "shard index out of range"
	}
	sh := &jb.shards[shardIdx]
	if sh.quarantined {
		// The shard was written off and the frontier limit lowered past
		// it; a late result can no longer be committed.
		return ackMsg{Status: statusIdle}, ""
	}
	counts, err := readCounts(body, sh.first, sh.blocks)
	if err != nil {
		return ackMsg{}, err.Error()
	}
	digest := countsDigest(counts)
	if sh.done {
		if digest == sh.digest {
			return ackMsg{Status: statusOK, Epoch: c.epoch}, ""
		}
		c.logf("conflicting completion for shard %d of %s: digest %08x vs committed %08x (first wins)",
			shardIdx, fp, digest, sh.digest)
		return ackMsg{Status: statusConflict, Epoch: c.epoch}, ""
	}
	sh.done, sh.digest, sh.lease = true, digest, 0
	v := experiment.VerdictOK
	if dec != "" && dec != jb.cfg.Decoder.String() {
		v = experiment.VerdictRescued
		c.logf("shard %d rescued by fallback decoder %s", shardIdx, dec)
	}
	jb.fr.Settle(sh.first, counts, v)
	c.settledLocked(jb)
	return ackMsg{Status: statusOK, Epoch: c.epoch}, ""
}

// RunPoint runs one sweep point to completion on whatever workers join,
// mirroring Pipeline.RunContext's contract: the committed prefix comes
// back as a partial Result with Interrupted set when ctx is cancelled.
// When Options.Store is set, the job runs under checkpoint.Ledger, the
// same ledger policy a local ber sweep uses (resume, commit-cadence
// checkpoints, the final record). The config must survive the wire
// codec verbatim — RunPoint proves it by fingerprint round-trip before
// publishing the job.
func (c *Coordinator) RunPoint(ctx context.Context, cfg experiment.Config) (*experiment.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	wire, err := MarshalConfig(cfg)
	if err != nil {
		return nil, err
	}
	rt, err := wire.Config()
	if err != nil {
		return nil, fmt.Errorf("fabric: config does not survive the wire: %w", err)
	}
	fp := cfg.Fingerprint()
	if got := rt.Fingerprint(); got != fp {
		return nil, fmt.Errorf("fabric: config is not wire-representable: fingerprint %s round-trips to %s", fp, got)
	}
	return c.ledger.RunPoint(ctx, cfg, func(ctx context.Context, cfg experiment.Config) (*experiment.Result, error) {
		return c.runJob(ctx, cfg, fp, wire)
	})
}

// runJob publishes the frontier's shard plan as the job in flight and
// waits until the frontier is done or ctx is cancelled; the frontier
// assembles the Result.
func (c *Coordinator) runJob(ctx context.Context, cfg experiment.Config, fp string, wire *WireConfig) (*experiment.Result, error) {
	fr := experiment.NewFrontier(cfg)
	if !fr.Done() {
		jb := &job{fp: fp, wire: wire, cfg: cfg, fr: fr, done: make(chan struct{})}
		for i := 0; ; i++ {
			first, n := fr.Shard(cfg.ShardShots, i)
			if n == 0 {
				break
			}
			jb.shards = append(jb.shards, shardState{first: first, blocks: n})
		}
		c.mu.Lock()
		if c.shutdown {
			c.mu.Unlock()
			return nil, fmt.Errorf("fabric: coordinator is shut down")
		}
		if c.job != nil {
			inflight := c.job.fp
			c.mu.Unlock()
			return nil, fmt.Errorf("fabric: a point is already in flight (%s)", inflight)
		}
		c.job = jb
		c.mu.Unlock()
		select {
		case <-jb.done:
		case <-ctx.Done():
		}
		c.mu.Lock()
		c.job = nil
		c.mu.Unlock()
	}
	return fr.Result(ctx.Err() != nil), nil
}

// Shutdown tells polling workers the sweep is over: subsequent job
// polls answer "shutdown" and RunPoint refuses new points. Call it
// after the last RunPoint has returned; it does not interrupt a point
// in flight (cancel RunPoint's context for that).
func (c *Coordinator) Shutdown() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shutdown = true
}
