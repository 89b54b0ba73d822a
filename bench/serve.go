package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/fpn/flagproxy/internal/rtd"
	"github.com/fpn/flagproxy/internal/sim"
)

// stream is one pre-encoded syndrome stream: the header frame, one blob
// of round frames per window, the trailer frame, and each window's true
// logical observables (bit o set when observable o flipped).
type stream struct {
	firstBlock int // first sampled block: window i is shot firstBlock*64+i
	header     []byte
	windows    [][]byte
	trailer    []byte
	observed   []uint64
}

// serveInputs are every window the serve leg sends, sampled and encoded
// before any timing.
type serveInputs struct {
	low, high stream   // high is empty in untraced runs
	closed    []stream // one per closed-loop stream
	encodeUs  float64  // rtd.EncodeWindows cost per window
}

// buildServeInputs samples the served windows from the serving circuit
// with the serving seed — consecutive block ranges per phase and
// stream, so the offline recount can sample the very same shots — and
// encodes them with rtd.BuildWindows and rtd.EncodeWindows.
func buildServeInputs(s *setup, sz sizes) (*serveInputs, error) {
	c := s.online.Circuit()
	fp := s.online.Config().Fingerprint()
	seed := s.online.Config().Seed
	rpw := 0
	for _, d := range c.Detectors {
		if d.Round+1 > rpw {
			rpw = d.Round + 1
		}
	}
	if len(c.Observables) > 64 {
		return nil, fmt.Errorf("serve: %d observables do not fit a 64-bit mask", len(c.Observables))
	}
	var encode time.Duration
	windows := 0
	block := 0
	mk := func(n int) (stream, error) {
		smp := sim.NewBlockSampler(c, n/64)
		if err := smp.Validate(block, n); err != nil {
			return stream{}, err
		}
		res := smp.Run(block, n, seed)
		wins := rtd.BuildWindows(c, res, 0, n)
		t0 := time.Now()
		frames, err := rtd.EncodeWindows(fp, wins)
		encode += time.Since(t0)
		windows += n
		if err != nil {
			return stream{}, err
		}
		st := stream{firstBlock: block, header: frames[0], trailer: frames[len(frames)-1]}
		for w := 0; w < n; w++ {
			lo := 1 + w*rpw
			st.windows = append(st.windows, bytes.Join(frames[lo:lo+rpw], nil))
			var obs uint64
			for o := range c.Observables {
				if res.ObservableBit(o, w) {
					obs |= 1 << uint(o)
				}
			}
			st.observed = append(st.observed, obs)
		}
		block += n / 64
		return st, nil
	}
	in := &serveInputs{}
	var err error
	if in.low, err = mk(sz.low); err != nil {
		return nil, err
	}
	if sz.high > 0 {
		if in.high, err = mk(sz.high); err != nil {
			return nil, err
		}
	}
	for i := 0; i < workers; i++ {
		st, err := mk(sz.closed / workers)
		if err != nil {
			return nil, err
		}
		in.closed = append(in.closed, st)
	}
	in.encodeUs = float64(encode.Nanoseconds()) / 1e3 / float64(windows)
	return in, nil
}

// lineClock is the serve client's RoundTripper: it stamps the arrival
// time of every response line as the client reads it. Result frames
// arrive in window order, so line i is window i's result.
type lineClock struct {
	next   http.RoundTripper
	onLine func(i int, at time.Time)
}

func (lc *lineClock) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := lc.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &lineReader{rc: resp.Body, onLine: lc.onLine}
	return resp, nil
}

type lineReader struct {
	rc     io.ReadCloser
	onLine func(int, time.Time)
	lines  int
}

func (lr *lineReader) Read(p []byte) (int, error) {
	n, err := lr.rc.Read(p)
	if n > 0 {
		at := time.Now()
		for _, b := range p[:n] {
			if b == '\n' {
				lr.onLine(lr.lines, at)
				lr.lines++
			}
		}
	}
	return n, err
}

func (lr *lineReader) Close() error { return lr.rc.Close() }

// panicLog counts the http.Server's "http: panic serving" lines.
type panicLog struct{ n atomic.Int64 }

func (p *panicLog) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte("http: panic serving")) {
		p.n.Add(1)
	}
	return len(b), nil
}

// phaseOut is one serve phase's outcome.
type phaseOut struct {
	results  [][]rtd.Result // per stream
	latMs    []float64      // per window, due → result read; +Inf when not committed
	lagMs    []float64      // per window, send − due (open loop only)
	wall     time.Duration
	answered *progress // closed loop: results read so far
	sent     int
	failed   int // windows with no committed result
	streamEr int // streams that ended in an error or a fatal verdict
}

// server is the rtd service under test, behind an http.Server configured
// like cmd/decoded's.
type server struct {
	rtd    *rtd.Server
	http   *http.Server
	url    string
	served chan struct{}
	panics *panicLog

	mu      sync.Mutex
	decodes []float64 // µs per decoded window, from Options.OnLatency (traced runs)
}

func startServer(s *setup, traced bool) (*server, error) {
	sv := &server{served: make(chan struct{}), panics: &panicLog{}}
	opt := rtd.Options{Online: s.online, Workers: workers}
	if traced {
		opt.OnLatency = func(ls rtd.LatencySample) {
			sv.mu.Lock()
			sv.decodes = append(sv.decodes, float64(ls.Ns)/1e3)
			sv.mu.Unlock()
		}
	}
	r, err := rtd.NewServer(opt)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.Close()
		return nil, err
	}
	sv.rtd, sv.url = r, "http://"+ln.Addr().String()
	sv.http = &http.Server{
		Handler:           r.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          log.New(sv.panics, "", 0),
	}
	go func() {
		defer close(sv.served)
		_ = sv.http.Serve(ln)
	}()
	return sv, nil
}

// decodeCount is how many decodes OnLatency has reported so far.
func (sv *server) decodeCount() int {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return len(sv.decodes)
}

// stop drains and closes the service the way decoded shuts down.
func (sv *server) stop() {
	sv.rtd.Drain()
	_ = sv.http.Close()
	<-sv.served
	sv.rtd.Close()
}

// post streams body to the service through a fresh connection whose
// response lines are stamped by onLine.
func (sv *server) post(ctx context.Context, body io.Reader, onLine func(int, time.Time)) (*rtd.StreamOutcome, error) {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	defer tp.CloseIdleConnections()
	cl := &rtd.Client{URL: sv.url, HTTP: &http.Client{Transport: &lineClock{next: tp, onLine: onLine}}}
	return cl.StreamBody(ctx, body)
}

// openLoop sends st's windows on one stream at rate windows/s, each at
// its due time whatever the service's state, through an io.Pipe body,
// and times every window from its due time to the moment its result
// frame is read. tr records one span per window and its send.
func (sv *server) openLoop(ctx context.Context, st stream, rate float64, phase string, tr *tracer) phaseOut {
	n := len(st.windows)
	due := make([]time.Time, n)
	sent := make([]time.Time, n)
	arrived := make([]time.Time, n)
	pr, pw := io.Pipe()
	t0 := time.Now().Add(2 * time.Millisecond) // after the connection is up
	period := time.Duration(float64(time.Second) / rate)
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		if _, err := pw.Write(st.header); err != nil {
			return
		}
		for i, blob := range st.windows {
			due[i] = t0.Add(time.Duration(i) * period)
			sleepUntil(due[i])
			if _, err := pw.Write(blob); err != nil {
				_ = pw.CloseWithError(err)
				return
			}
			sent[i] = time.Now()
		}
		_, err := pw.Write(st.trailer)
		_ = pw.CloseWithError(err)
	}()
	out, err := sv.post(ctx, pr, func(i int, at time.Time) {
		if i < n {
			arrived[i] = at
		}
	})
	_ = pr.CloseWithError(io.ErrClosedPipe) // unblock the generator if the stream died
	<-genDone
	po := phaseOut{sent: n, wall: time.Since(t0)}
	var results []rtd.Result
	if err != nil || out.Fatal != "" {
		po.streamEr = 1
	}
	if err == nil {
		results = out.Results
	}
	po.results = [][]rtd.Result{results}
	for i := 0; i < n; i++ {
		ok := i < len(results) && results[i].Status == rtd.StatusOK && !sent[i].IsZero() && !arrived[i].IsZero()
		if !ok {
			po.failed++
			po.latMs = append(po.latMs, math.Inf(1))
			continue
		}
		po.latMs = append(po.latMs, float64(arrived[i].Sub(due[i]).Nanoseconds())/1e6)
		po.lagMs = append(po.lagMs, float64(sent[i].Sub(due[i]).Nanoseconds())/1e6)
		if tr != nil {
			id := phase + ":w" + strconv.Itoa(i)
			root := tr.add("rtd.window", id, -1, due[i], arrived[i])
			tr.add("rtd.send", id, root, due[i], sent[i])
		}
	}
	return po
}

// sleepUntil blocks the calling thread in nanosleep until t. The
// runtime's own timers wake sub-millisecond sleeps up to a millisecond
// late, which would dwarf the latencies being measured; a thread
// blocked in the kernel wakes within microseconds, and the runtime
// hands its processor to other goroutines meanwhile, so nothing spins.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// closedLoop runs one stream per element of streams, each keeping
// inFlight windows outstanding: a window is sent only once the result of
// the window inFlight places before it has been read.
func (sv *server) closedLoop(ctx context.Context, streams []stream) phaseOut {
	po := phaseOut{results: make([][]rtd.Result, len(streams)), answered: &progress{}}
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := range streams {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			st := streams[k]
			credit := make(chan struct{}, inFlight)
			for i := 0; i < inFlight; i++ {
				credit <- struct{}{}
			}
			pr, pw := io.Pipe()
			genDone := make(chan struct{})
			go func() {
				defer close(genDone)
				if _, err := pw.Write(st.header); err != nil {
					return
				}
				for _, blob := range st.windows {
					select {
					case <-credit:
					case <-ctx.Done():
						_ = pw.CloseWithError(ctx.Err())
						return
					}
					if _, err := pw.Write(blob); err != nil {
						_ = pw.CloseWithError(err)
						return
					}
				}
				_, err := pw.Write(st.trailer)
				_ = pw.CloseWithError(err)
			}()
			out, err := sv.post(ctx, pr, func(i int, _ time.Time) {
				if i < len(st.windows) {
					po.answered.tick()
				}
				select {
				case credit <- struct{}{}:
				default: // the trailer and any surplus line return no credit
				}
			})
			_ = pr.CloseWithError(io.ErrClosedPipe)
			<-genDone
			if err == nil && out.Fatal != "" {
				err = fmt.Errorf("rtd: %s", out.Fatal)
			}
			if out != nil {
				po.results[k] = out.Results
			}
			errs[k] = err
		}(k)
	}
	wg.Wait()
	po.wall = time.Since(t0)
	for k, st := range streams {
		po.sent += len(st.windows)
		if errs[k] != nil {
			po.streamEr++
		}
		for i := range st.windows {
			if i >= len(po.results[k]) || po.results[k][i].Status != rtd.StatusOK {
				po.failed++
			}
		}
	}
	return po
}

// committed counts the phase's windows that got a correction.
func (po phaseOut) committed() int { return po.sent - po.failed }

// recountGate checks every served block whose windows all committed:
// its online logical-error count must equal BlockRunner.CountBlocks on
// the same sampled block. It returns the blocks checked.
func recountGate(ctx context.Context, s *setup, sts []stream, results [][]rtd.Result) (int, error) {
	checked := 0
	for k, st := range sts {
		res := results[k]
		blocks := len(st.windows) / 64
		counts, err := s.recount.CountBlocks(ctx, st.firstBlock, blocks)
		if err != nil {
			return checked, err
		}
	block:
		for b := 0; b < blocks; b++ {
			online := 0
			for w := b * 64; w < (b+1)*64; w++ {
				if w >= len(res) || !res[w].Committed() {
					continue block
				}
				var flips uint64
				for _, o := range res[w].Flips {
					flips |= 1 << uint(o)
				}
				if flips != st.observed[w] {
					online++
				}
			}
			if online != counts[b] {
				return checked, fmt.Errorf("serve: block %d: online decode committed %d logical errors, offline CountBlocks %d",
					st.firstBlock+b, online, counts[b])
			}
			checked++
		}
	}
	return checked, nil
}
