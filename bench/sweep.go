package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fpn/flagproxy/internal/checkpoint"
	"github.com/fpn/flagproxy/internal/experiment"
	"github.com/fpn/flagproxy/internal/fabric"
	"github.com/fpn/flagproxy/internal/sim"
)

// checkpointEvery is ber's ledger cadence in committed blocks.
const checkpointEvery = 256

// shardBlocks is the engine's default shard: 1024 shots.
const shardBlocks = 16

// sweepOut is one sweep leg's outcome.
type sweepOut struct {
	wall        time.Duration
	sustained   float64 // median shots/s over commit-frontier slices
	blocks      int
	shots       int
	shardErrors int
	sig         string // what the correctness gates compare, see signature
}

func (o sweepOut) shotsPerSec() float64 { return float64(o.shots) / o.wall.Seconds() }

// watchCommits chains a progress mark in front of cfg's OnCommit hook.
func watchCommits(cfg *experiment.Config) *progress {
	prog := &progress{}
	next := cfg.OnCommit
	cfg.OnCommit = func(p experiment.Progress) {
		prog.mark(float64(p.Shots))
		if next != nil {
			next(p)
		}
	}
	return prog
}

// signature renders everything the gates compare: the fingerprint of
// the point a leg ran and the result it committed.
func signature(fp string, r *experiment.Result) string {
	return fmt.Sprintf("%s blocks=%d shots=%d errors=%d early=%v ber=%.17g ci=[%.17g,%.17g]",
		fp, r.Blocks, r.Shots, r.LogicalErrors, r.EarlyStopped, r.BER, r.CILow, r.CIHigh)
}

// openLedger opens a fresh checkpoint store in a temporary directory,
// through fs when it is non-nil. The caller removes the directory.
func openLedger(fs checkpoint.FS) (*checkpoint.Store, string, error) {
	dir, err := os.MkdirTemp("", "fpnbench-ledger-*")
	if err != nil {
		return nil, "", err
	}
	st, err := checkpoint.OpenOptions(dir, checkpoint.Options{FS: fs})
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, "", err
	}
	return st, dir, nil
}

// ledgerHook returns ber's OnCommit checkpoint hook for store.
func ledgerHook(store *checkpoint.Store, key string, failures *atomic.Int64) func(experiment.Progress) {
	last := 0
	return func(p experiment.Progress) {
		if p.Blocks-last < checkpointEvery {
			return
		}
		last = p.Blocks
		if err := store.Put(checkpoint.Record{Key: key, Blocks: p.Blocks, Shots: p.Shots, Errors: p.Errors}); err != nil {
			failures.Add(1)
		}
	}
}

// localLeg runs the point through the local engine, as ber does without
// -serve: Pipeline.RunContext on two workers, writing the ledger when
// the workload asks for one.
func localLeg(ctx context.Context, s *setup, w *workload, fs checkpoint.FS) (sweepOut, int64, error) {
	cfg := s.sweepCfg
	var ledgerFails atomic.Int64
	if w.ledger {
		store, dir, err := openLedger(fs)
		if err != nil {
			return sweepOut{}, 0, err
		}
		defer os.RemoveAll(dir)
		cfg.OnCommit = ledgerHook(store, cfg.Fingerprint(), &ledgerFails)
	}
	prog := watchCommits(&cfg)
	t0 := time.Now()
	res, err := s.sweepPl.RunContext(ctx, cfg)
	if err != nil {
		return sweepOut{}, 0, err
	}
	out := sweepOut{
		wall: time.Since(t0), blocks: res.Blocks, shots: res.Shots, shardErrors: len(res.ShardErrors),
		sig: signature(cfg.Fingerprint(), res),
	}
	out.sustained = prog.sustained(out.shotsPerSec())
	return out, ledgerFails.Load(), nil
}

// fabricOut is the fabric leg's outcome plus the coordinator's view.
type fabricOut struct {
	sweepOut
	published string // the fingerprint of the job the coordinator published
	reassigns int64  // expired leases handed to another worker
	// abnormal sums Coordinator.Status's failure counters: reassigned
	// leases, fallback retries, quarantined shards and fenced requests.
	abnormal  int64
	workerErr error
}

// fabricLeg runs cfg through an in-process coordinator with a
// temporary ledger and two workers joined over loopback, all at ber's
// production defaults, the workers' traffic passing through meter.
// Timing starts at RunPoint; the workers are started once the job is
// published, so no run waits out a poll. The leg's signature carries the
// fingerprint the coordinator published and the result RunPoint merged.
func fabricLeg(ctx context.Context, cfg experiment.Config, fs checkpoint.FS, meter *wireMeter) (fabricOut, error) {
	store, dir, err := openLedger(fs)
	if err != nil {
		return fabricOut{}, err
	}
	defer os.RemoveAll(dir)
	co := fabric.NewCoordinator(fabric.Options{Store: store, CheckpointEvery: checkpointEvery})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fabricOut{}, err
	}
	// Configured as ber -serve configures its coordinator server.
	srv := &http.Server{
		Handler:           co.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln)
	}()
	defer func() {
		_ = srv.Close()
		<-served
	}()

	pointCfg := cfg
	prog := watchCommits(&pointCfg)
	url := "http://" + ln.Addr().String()

	// RunPoint runs on this goroutine; a helper starts the first worker
	// the moment the job is published, so no worker waits out a poll.
	// The others join once the first has built its decode stack and asks
	// for a lease. Deployed ber -join workers are processes of their own,
	// so their builds never share one heap; overlapping them here would
	// make peak_rss_mb depend on how two builds happen to interleave.
	var wg sync.WaitGroup
	werrs := make([]error, workers)
	var published string
	stop, joined := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(joined)
		for published = co.Status().Fingerprint; published == ""; published = co.Status().Fingerprint {
			select {
			case <-stop:
				return // RunPoint failed before publishing
			default:
				time.Sleep(50 * time.Microsecond)
			}
		}
		first := make(chan struct{}) // closed when the first worker exits
		for i := 0; i < workers; i++ {
			if i == 1 {
				select {
				case <-meter.leased:
				case <-first:
				case <-stop:
					return
				}
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if i == 0 {
					defer close(first)
				}
				werrs[i] = fabric.RunWorker(ctx, fabric.WorkerOptions{
					URL: url, ID: fmt.Sprintf("bench-%d", i),
					// The worker's own default client, with the meter in front.
					Client: &http.Client{Transport: meter, Timeout: 2 * time.Minute},
				})
			}(i)
		}
	}()
	t0 := time.Now()
	res, err := co.RunPoint(ctx, pointCfg)
	wall := time.Since(t0)
	close(stop)
	<-joined
	st := co.Status()
	co.Shutdown()
	wg.Wait()
	if err != nil {
		return fabricOut{}, err
	}
	out := fabricOut{
		sweepOut: sweepOut{
			wall: wall, blocks: res.Blocks, shots: res.Shots, shardErrors: len(res.ShardErrors),
			sig: signature(published, res),
		},
		published: published,
		reassigns: st.LeaseReassigns,
		abnormal:  st.LeaseReassigns + st.FallbackRetries + st.Quarantined + st.StaleEpochRejects,
	}
	out.sustained = prog.sustained(out.shotsPerSec())
	for _, err := range werrs {
		if err != nil && out.workerErr == nil {
			out.workerErr = err
		}
	}
	return out, nil
}

// wireMeter is the fabric workers' RoundTripper: it counts requests,
// failures and body bytes, and times every exchange from request to
// response-body close. Traced runs also get one span per request.
type wireMeter struct {
	next *http.Transport
	tr   *tracer

	requests, failures, bytes, busyNs atomic.Int64

	leased    chan struct{} // closed at the first lease request
	leaseOnce sync.Once

	mu   sync.Mutex
	rtts map[string][]float64 // endpoint → round trips in µs
}

func newWireMeter(tr *tracer) *wireMeter {
	return &wireMeter{next: http.DefaultTransport.(*http.Transport).Clone(), tr: tr, leased: make(chan struct{})}
}

func (m *wireMeter) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	m.requests.Add(1)
	if strings.HasSuffix(req.URL.Path, "/v1/lease") {
		m.leaseOnce.Do(func() { close(m.leased) })
	}
	if req.ContentLength > 0 {
		m.bytes.Add(req.ContentLength)
	}
	resp, err := m.next.RoundTrip(req)
	if err != nil {
		m.failures.Add(1)
		m.record(req, start)
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		m.failures.Add(1)
	}
	resp.Body = &meteredBody{rc: resp.Body, m: m, req: req, start: start}
	return resp, nil
}

// record books one finished exchange.
func (m *wireMeter) record(req *http.Request, start time.Time) {
	end := time.Now()
	m.busyNs.Add(end.Sub(start).Nanoseconds())
	ep := strings.TrimPrefix(req.URL.Path, "/v1/")
	m.mu.Lock()
	if m.rtts == nil {
		m.rtts = map[string][]float64{}
	}
	m.rtts[ep] = append(m.rtts[ep], float64(end.Sub(start).Microseconds()))
	m.mu.Unlock()
	id := ep
	if l := req.URL.Query().Get("lease"); l != "" {
		id = "lease:" + l
	}
	m.tr.add("fabric."+ep, id, -1, start, end)
}

// rttP50 is the median round trip of one endpoint, in µs.
func (m *wireMeter) rttP50(ep string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.rtts[ep]) == 0 {
		return 0
	}
	return median(m.rtts[ep])
}

// meteredBody counts response bytes and closes the exchange's clock.
type meteredBody struct {
	rc    io.ReadCloser
	m     *wireMeter
	req   *http.Request
	start time.Time
	once  sync.Once
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.m.bytes.Add(int64(n))
	return n, err
}

func (b *meteredBody) Close() error {
	err := b.rc.Close()
	b.once.Do(func() { b.m.record(b.req, b.start) })
	return err
}

// meteredFS is the ledger's filesystem with a stopwatch: a flush runs
// from the store's merge read to its directory sync, one at a time per
// store, so consecutive calls delimit it exactly.
type meteredFS struct {
	checkpoint.FS

	mu         sync.Mutex
	flushStart time.Time
	flushes    []float64 // ms per flush
	busy       time.Duration
	written    int64
}

func newMeteredFS() *meteredFS { return &meteredFS{FS: checkpoint.OSFS()} }

func (f *meteredFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	f.flushStart = time.Now()
	f.mu.Unlock()
	return f.FS.ReadFile(name)
}

func (f *meteredFS) SyncDir(dir string) error {
	err := f.FS.SyncDir(dir)
	f.mu.Lock()
	d := time.Since(f.flushStart)
	f.busy += d
	f.flushes = append(f.flushes, float64(d.Nanoseconds())/1e6)
	f.mu.Unlock()
	return err
}

func (f *meteredFS) CreateTemp(dir, pattern string) (checkpoint.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, fs: f}, nil
}

// countingFile counts the bytes a flush writes.
type countingFile struct {
	checkpoint.File
	fs *meteredFS
}

func (c *countingFile) Write(p []byte) (int, error) {
	n, err := c.File.Write(p)
	c.fs.mu.Lock()
	c.fs.written += int64(n)
	c.fs.mu.Unlock()
	return n, err
}

// replicaOut is the traced replica's outcome.
type replicaOut struct {
	sweepOut
	ledgerFails          int64
	commits              int
	memoHits, memoMisses int64
}

// tracedReplica re-runs the local leg's point through the engine's own
// public seams on two goroutines — BlockSampler.Run, then DecodeBlock
// per block, then Frontier.Mark/Commit, with the ledger Put on the
// commit — recording one span per shard and per layer call. It must
// commit exactly what the untraced RunContext committed.
func tracedReplica(s *setup, w *workload, fs checkpoint.FS, tr *tracer) (replicaOut, error) {
	cfg := s.sweepCfg
	var out replicaOut
	var ledgerFails atomic.Int64
	// The frontier calls OnCommit under its own lock, so one commit is
	// in flight at a time; commitSpan names it for the Put's span.
	var commitMu sync.Mutex
	commitSpan := -1
	if w.ledger {
		store, dir, err := openLedger(fs)
		if err != nil {
			return out, err
		}
		defer os.RemoveAll(dir)
		put := ledgerHook(store, cfg.Fingerprint(), &ledgerFails)
		cfg.OnCommit = func(p experiment.Progress) {
			i := tr.begin("checkpoint.put", "block:"+strconv.Itoa(p.Blocks), commitSpan)
			put(p)
			tr.end(i)
		}
	}
	fr := experiment.NewFrontier(cfg)
	total := fr.Total()
	numShards := (total + shardBlocks - 1) / shardBlocks
	blockLen := func(b int) int {
		if n := cfg.Shots - b*64; n < 64 {
			return n
		}
		return 64
	}
	var next atomic.Int64
	var commits atomic.Int64
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pd := s.replica.Acquire()
			defer pd.Release()
			smp := sim.NewBlockSampler(s.replica.Circuit(), shardBlocks)
			counts := make([]int, shardBlocks)
			for {
				sh := int(next.Add(1) - 1)
				if sh >= numShards {
					return
				}
				first := sh * shardBlocks
				end := first + shardBlocks
				if end > total {
					end = total
				}
				id := "block:" + strconv.Itoa(first)
				root := tr.begin("experiment.shard", id, -1)
				si := tr.begin("sim.run", id, root)
				res := smp.Run(first, blockLen(end-1)+(end-first-1)*64, cfg.Seed)
				tr.end(si)
				di := tr.begin("decoder.decode_block", id, root)
				for b := first; b < end; b++ {
					n, ok := pd.DecodeBlock(res, (b-first)*64, blockLen(b))
					if !ok {
						errc <- fmt.Errorf("replica: %s decoder has no batch path", cfg.Decoder)
						return
					}
					counts[b-first] = n
				}
				tr.end(di)
				ci := tr.begin("experiment.commit", id, root)
				for b := first; b < end; b++ {
					fr.Mark(b, counts[b-first])
				}
				commitMu.Lock()
				commitSpan = ci
				if fr.Commit() {
					commits.Add(1)
				}
				commitMu.Unlock()
				tr.end(ci)
				tr.end(root)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	close(errc)
	if err := <-errc; err != nil {
		return out, err
	}
	p := fr.State()
	hits, misses := s.replica.MemoStats()
	return replicaOut{
		sweepOut: sweepOut{
			wall: wall, blocks: p.Blocks, shots: p.Shots,
			sig: signature(cfg.Fingerprint(), experiment.Reconstruct(cfg, p.Blocks, p.Shots, p.Errors, fr.Finalized())),
		},
		ledgerFails: ledgerFails.Load(),
		commits:     int(commits.Load()),
		memoHits:    hits,
		memoMisses:  misses,
	}, nil
}
