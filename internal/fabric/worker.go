// The worker side of the fabric: poll the coordinator for the current
// sweep point, rebuild the exact Config from the wire (verifying the
// fingerprint so engine drift between binaries is caught up front),
// then lease shards, decode them through experiment.BlockRunner — the
// production stack — and stream the counts back CRC-framed. The worker
// is stateless across leases and idempotent across retries: a crash,
// disconnect or expired lease only ever causes a shard to be recomputed
// somewhere, bit-identically.
//
// Timing here (polling cadence, retry pacing, heartbeats) is pure
// liveness, never results — the retry budget is a fixed attempt count
// sized from Patience against the worst-case backoff schedule, retry
// pauses are jittered exponential draws derived deterministically from
// (worker ID, endpoint, attempt) via seedmix, so no wall-clock reads
// are needed and the single annotated wall-clock site is the default
// sleep.
package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"github.com/fpn/flagproxy/internal/experiment"
	"github.com/fpn/flagproxy/internal/seedmix"
)

// ErrUnreachable marks a worker exit caused by every coordinator
// address staying dark through the whole retry budget — the signal
// cmd/ber maps to its distinct exit code, as opposed to an interrupt
// or an engine failure.
var ErrUnreachable = errors.New("fabric: coordinator unreachable")

// WorkerOptions configures RunWorker. URL (or URLs) is required;
// everything else has serviceable defaults.
type WorkerOptions struct {
	// URL is the coordinator's base address, e.g. "http://host:9911".
	URL string
	// URLs, when non-empty, is the failover address list: the primary
	// coordinator first, standbys after. A request that fails rotates to
	// the next address before the jittered backoff retry, so a fleet
	// rides a coordinator handoff without operator action. URL, when
	// also set, is tried first.
	URLs []string
	// ID names this worker in coordinator logs and lease records.
	ID string
	// Client issues the HTTP requests; nil means a default client. The
	// chaos suite injects a faulting RoundTripper here.
	Client *http.Client
	// Poll is the idle/wait polling cadence and the base of the
	// jittered exponential retry backoff; 0 means 200ms.
	Poll time.Duration
	// Patience bounds how long an unreachable coordinator is retried
	// before the worker gives up (as an attempt budget whose worst-case
	// backoff schedule spans Patience); 0 means 2 minutes.
	Patience time.Duration
	// MaxRetries, when > 0, overrides the Patience-derived attempt
	// budget with a hard per-request cap: the operator's "fail fast when
	// nobody answers" knob (ber -max-retries).
	MaxRetries int
	// Heartbeat is the lease heartbeat cadence; 0 means a third of the
	// coordinator's lease TTL.
	Heartbeat time.Duration
	// MaxShards, when > 0, exits the worker after that many completed
	// shards — the chaos suite's "killed worker" lever.
	MaxShards int
	// Fallback lists decoder kinds to try, in order, when the
	// coordinator hands this worker a fallback-flagged lease (a
	// poison-suspect shard's last chance before quarantine). Empty means
	// retry with the primary decoder.
	Fallback []experiment.DecoderKind
	// Sleep, when non-nil, replaces the default sleep so tests pace
	// deterministically.
	Sleep func(time.Duration)
	// Log, when non-nil, receives one-line operational notes.
	Log io.Writer
}

// worker is the resolved option set plus the per-job decode state.
type worker struct {
	opt      WorkerOptions
	client   *http.Client
	poll     time.Duration
	attempts int // network retry budget per request: Patience against the worst-case backoff

	urls []string     // failover address list; immutable after RunWorker starts
	cur  atomic.Int64 // index into urls; the heartbeat goroutine reads it concurrently

	// epoch is the highest coordinator epoch seen; the heartbeat
	// goroutine echoes it concurrently with the main loop.
	epoch atomic.Int64

	fp     string
	runner *experiment.BlockRunner
	ttl    time.Duration
}

// wait pauses for d or until ctx is cancelled, whichever comes first.
// Pacing is liveness, never results; an injected Sleep (tests) takes
// over wholesale.
//
//fpnvet:wallclock polling cadence is liveness, not results
func (w *worker) wait(ctx context.Context, d time.Duration) {
	if w.opt.Sleep != nil {
		w.opt.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

func (w *worker) logf(format string, args ...any) {
	if w.opt.Log != nil {
		fmt.Fprintf(w.opt.Log, "worker %s: "+format+"\n", append([]any{w.opt.ID}, args...)...)
	}
}

// RunWorker joins the coordinator at opt.URL (failing over across
// opt.URLs) and works shards until the coordinator announces shutdown,
// the context is cancelled, or MaxShards is reached. It returns nil on
// an orderly exit and an error wrapping ErrUnreachable when every
// address stayed dark through the retry budget.
func RunWorker(ctx context.Context, opt WorkerOptions) error {
	var urls []string
	if opt.URL != "" {
		urls = append(urls, opt.URL)
	}
	urls = append(urls, opt.URLs...)
	if len(urls) == 0 {
		return fmt.Errorf("fabric: worker needs a coordinator URL")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	patience := opt.Patience
	if patience <= 0 {
		patience = 2 * time.Minute
	}
	w := &worker{opt: opt, client: opt.Client, poll: opt.Poll, urls: urls}
	if w.client == nil {
		// Every coordinator exchange is one small JSON round trip, so the
		// retry-ladder bound is also a sane per-request bound. Without a
		// Timeout a coordinator that accepts the connection and then hangs
		// wedges the worker forever — the retry budget never even starts.
		w.client = &http.Client{Timeout: patience}
	}
	if w.poll <= 0 {
		w.poll = 200 * time.Millisecond
	}
	w.attempts = retryAttempts(w.poll, patience)
	if opt.MaxRetries > 0 {
		w.attempts = opt.MaxRetries
	}
	done := 0
	for ctx.Err() == nil {
		var jm jobMsg
		if err := w.getJSON(ctx, "/v1/job", nil, &jm); err != nil {
			return err
		}
		switch jm.Status {
		case statusShutdown:
			return nil
		case statusIdle:
			w.wait(ctx, w.poll)
			continue
		case statusJob:
			if seen := w.epoch.Load(); jm.Epoch != 0 && jm.Epoch < seen {
				// A fenced-out predecessor is still answering on this
				// address; rotate away rather than work for a coordinator
				// whose commits the fleet will reject.
				w.logf("coordinator at %s announces stale epoch %d (< %d); rotating", w.baseURL(), jm.Epoch, seen)
				w.rotate()
				w.wait(ctx, w.poll)
				continue
			} else if jm.Epoch > seen {
				w.epoch.Store(jm.Epoch)
			}
			if err := w.prepare(jm); err != nil {
				return err
			}
		default:
			return fmt.Errorf("fabric: coordinator answered job poll with %q", jm.Status)
		}
		var lm leaseMsg
		if err := w.getJSON(ctx, "/v1/lease?"+url.Values{"job": {w.fp}, "worker": {w.opt.ID}}.Encode(), []byte{}, &lm); err != nil {
			return err
		}
		switch lm.Status {
		case statusShutdown:
			return nil
		case statusWait, statusDone, statusIdle:
			// Nothing leasable right now; the job poll above decides
			// what happens next (a new point, shutdown, or more waiting).
			w.wait(ctx, w.poll)
		case statusLease:
			if err := w.work(ctx, lm); err != nil {
				return err
			}
			done++
			if w.opt.MaxShards > 0 && done >= w.opt.MaxShards {
				w.logf("reached MaxShards=%d, exiting", w.opt.MaxShards)
				return nil
			}
		default:
			return fmt.Errorf("fabric: coordinator answered lease request with %q", lm.Status)
		}
	}
	return ctx.Err()
}

// baseURL is the coordinator address currently in rotation.
func (w *worker) baseURL() string {
	return w.urls[int(w.cur.Load())%len(w.urls)]
}

// rotate moves to the next coordinator address; a no-op with one.
func (w *worker) rotate() {
	if len(w.urls) > 1 {
		w.cur.Add(1)
	}
}

// epochQuery stamps the highest seen coordinator epoch onto a request's
// query so the coordinator can fence a worker still loyal to a fenced
// predecessor. Zero (nothing seen yet) stays unstamped.
func (w *worker) epochQuery(q url.Values) {
	if e := w.epoch.Load(); e != 0 {
		q.Set("epoch", fmt.Sprint(e))
	}
}

// prepare (re)builds the decode stack when the coordinator's current
// point changes, and verifies the locally derived fingerprint matches
// the coordinator's — the engine-drift tripwire.
func (w *worker) prepare(jm jobMsg) error {
	if w.runner != nil && w.fp == jm.Fingerprint {
		return nil
	}
	if jm.Config == nil {
		return fmt.Errorf("fabric: job %s has no config", jm.Fingerprint)
	}
	cfg, err := jm.Config.Config()
	if err != nil {
		return err
	}
	if got := cfg.Fingerprint(); got != jm.Fingerprint {
		return fmt.Errorf("fabric: engine drift: coordinator job %s, local rebuild fingerprints to %s (mismatched binaries?)", jm.Fingerprint, got)
	}
	var pl *experiment.Pipeline
	if cfg.Schedule != nil {
		pl, err = experiment.NewPipelineFromSchedule(cfg.Code, cfg.Schedule)
	} else {
		pl, err = experiment.NewPipeline(cfg.Code, cfg.Arch)
	}
	if err != nil {
		return err
	}
	cfg.Fallback = w.opt.Fallback // a scheduling knob: the fingerprint stays put
	br, err := pl.NewBlockRunner(cfg)
	if err != nil {
		return err
	}
	w.fp, w.runner = jm.Fingerprint, br
	w.ttl = time.Duration(jm.LeaseTTLMs) * time.Millisecond
	w.logf("joined point %s (%d blocks)", jm.Fingerprint, br.TotalBlocks())
	return nil
}

// work decodes one leased shard and streams its counts back,
// heartbeating the lease while the decode runs. A decode failure is
// reported immediately through /v1/abandon with the failure as the
// repro reason, instead of killing the worker: the coordinator owns the
// one poison ladder (abandonment threshold, one fallback retry,
// quarantine) so a deterministic panic can neither ping-pong a shard
// across the fleet forever nor take the fleet down shard by shard.
func (w *worker) work(ctx context.Context, lm leaseMsg) error {
	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeat(hbCtx, lm.Lease)
	}()
	counts, dec, err := w.decode(ctx, lm)
	stopHB()
	<-hbDone
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var se *experiment.ShardError
		if errors.As(err, &se) {
			se.Shard = lm.Shard // the runner counted a bare block range
		}
		w.logf("shard %d (firstBlock %d) failed: %v", lm.Shard, lm.FirstBlock, err)
		return w.abandon(ctx, lm, err.Error())
	}
	var buf bytes.Buffer
	if err := writeCounts(&buf, lm.FirstBlock, counts); err != nil {
		return err
	}
	q := url.Values{"job": {w.fp}, "shard": {fmt.Sprint(lm.Shard)}, "lease": {fmt.Sprint(lm.Lease)}}
	if dec != "" {
		q.Set("dec", dec)
	}
	w.epochQuery(q)
	var ack ackMsg
	if err := w.getJSON(ctx, "/v1/complete?"+q.Encode(), buf.Bytes(), &ack); err != nil {
		return err
	}
	switch ack.Status {
	case statusConflict:
		w.logf("shard %d completion conflicted; coordinator kept the first result", lm.Shard)
	case statusStaleEpoch:
		// The fleet failed over while we decoded. Adopt the new epoch and
		// re-poll; the live coordinator re-grants whatever is missing.
		w.logf("shard %d completion fenced off: coordinator is at epoch %d", lm.Shard, ack.Epoch)
		if ack.Epoch > w.epoch.Load() {
			w.epoch.Store(ack.Epoch)
		}
	}
	return nil
}

// decode runs the shard under the right decoder: the primary for a
// normal lease, the fallback chain (or the primary again when none is
// configured) for a fallback-flagged one. The second return names the
// rescuing decoder when it differs from the primary.
func (w *worker) decode(ctx context.Context, lm leaseMsg) ([]int, string, error) {
	if !lm.Fallback || len(w.opt.Fallback) == 0 {
		if lm.Fallback {
			w.logf("fallback lease for shard %d with no fallback chain; retrying the primary decoder", lm.Shard)
		}
		counts, err := w.runner.CountBlocks(ctx, lm.FirstBlock, lm.Blocks)
		return counts, "", err
	}
	counts, kind, err := w.runner.RescueBlocks(ctx, lm.FirstBlock, lm.Blocks)
	if err != nil {
		return nil, "", fmt.Errorf("fabric: fallback chain exhausted on shard %d: %w", lm.Shard, err)
	}
	w.logf("shard %d rescued by fallback decoder %s", lm.Shard, kind)
	return counts, kind.String(), nil
}

// abandon hands a lease back with the failure as the repro reason. Best
// effort by design: if the abandon itself cannot be delivered, the
// lease expiring carries the same signal, just later.
func (w *worker) abandon(ctx context.Context, lm leaseMsg, reason string) error {
	q := url.Values{
		"job": {w.fp}, "shard": {fmt.Sprint(lm.Shard)},
		"lease": {fmt.Sprint(lm.Lease)}, "worker": {w.opt.ID}, "reason": {reason},
	}
	w.epochQuery(q)
	var ack ackMsg
	if err := w.singleJSON(ctx, "/v1/abandon?"+q.Encode(), []byte{}, &ack); err != nil {
		w.logf("abandon of shard %d undelivered: %v (the lease will expire instead)", lm.Shard, err)
	}
	return nil
}

// heartbeat renews the lease at the heartbeat cadence until cancelled.
// Failures are ignored: a missed heartbeat at worst expires the lease,
// and an expired-then-completed shard still merges by content.
func (w *worker) heartbeat(ctx context.Context, lease int64) {
	hb := w.opt.Heartbeat
	if hb <= 0 {
		hb = w.ttl / 3
	}
	if hb <= 0 {
		hb = w.poll
	}
	q := url.Values{"job": {w.fp}, "lease": {fmt.Sprint(lease)}}
	w.epochQuery(q)
	enc := q.Encode()
	for {
		w.wait(ctx, hb)
		if ctx.Err() != nil {
			return
		}
		var ack ackMsg
		if err := w.singleJSON(ctx, "/v1/heartbeat?"+enc, []byte{}, &ack); err != nil || ack.Status != statusOK {
			return // lease lost, fenced off, or coordinator unreachable; the decode result still merges by content
		}
	}
}

// backoffCap bounds the exponential retry pause at this multiple of the
// poll cadence: long enough to take real pressure off a struggling
// coordinator, short enough that a recovered one is rediscovered
// promptly.
const backoffCap = 16

// retryPause is the pause before retry attempt k (1-based) of one
// request: exponential growth from the poll cadence, capped at
// backoffCap×poll, with a deterministic jitter in [½, 1)× of the step
// so a worker fleet that lost its coordinator together does not hammer
// it back in lockstep. The draw depends only on (worker ID, endpoint,
// attempt) through the same splitmix64 mixer as the shard engine —
// pacing is bit-reproducible under an injected Sleep and never touches
// the wall clock or the results.
func (w *worker) retryPause(site string, attempt int) time.Duration {
	step := w.poll
	for i := 1; i < attempt && step < w.poll*backoffCap; i++ {
		step *= 2
	}
	if max := w.poll * backoffCap; step > max {
		step = max
	}
	word := uint64(seedmix.Derive(0, seedmix.String(w.opt.ID), seedmix.String(site), uint64(attempt)))
	frac := float64(word>>11) / float64(1<<53) // uniform in [0, 1)
	half := step / 2
	return half + time.Duration(frac*float64(half))
}

// retryAttempts sizes the per-request retry budget so the worst-case
// pause schedule (every jitter draw at its maximum) still spans
// patience — the same guarantee the old fixed-interval budget gave,
// with far fewer requests once the pauses have grown to the cap.
func retryAttempts(poll, patience time.Duration) int {
	n := 1 // the first attempt pays no pause
	for total := time.Duration(0); total < patience; n++ {
		step := poll
		for i := 1; i < n && step < poll*backoffCap; i++ {
			step *= 2
		}
		if max := poll * backoffCap; step > max {
			step = max
		}
		total += step
	}
	return n
}

// getJSON performs one request with the patience-bounded retry budget:
// network errors and torn-stream rejections (HTTP 400 on /v1/complete,
// which a fault-injected transport can cause) are retried after a
// jittered exponential pause, rotating to the next coordinator address
// before each retry so a fleet rides a failover without operator
// action; anything else is decoded into out. body == nil means GET.
// The budget-exhausted error wraps ErrUnreachable.
func (w *worker) getJSON(ctx context.Context, path string, body []byte, out any) error {
	site := path
	if i := strings.IndexByte(site, '?'); i >= 0 {
		site = site[:i] // the endpoint, not the per-lease query values
	}
	var err error
	for attempt := 0; attempt < w.attempts; attempt++ {
		if attempt > 0 {
			w.wait(ctx, w.retryPause(site, attempt))
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err = w.singleJSON(ctx, path, body, out); err == nil {
			return nil
		}
		w.rotate()
	}
	return fmt.Errorf("%w after %d attempts: %v", ErrUnreachable, w.attempts, err)
}

// singleJSON is one HTTP round trip with no retries.
func (w *worker) singleJSON(ctx context.Context, path string, body []byte, out any) error {
	method := http.MethodGet
	var rd io.Reader
	if body != nil {
		method = http.MethodPost
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.baseURL()+path, rd)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	//fpnvet:nodeadline bounded by the client Timeout and the request context
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fabric: %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}
