// Package rtd is the real-time decode service: long-running HTTP
// streams of per-round syndromes in, per-window corrections out, under
// an explicit latency SLO. One window is one full round span of the
// serving circuit (the unit the decoder commits), and the service
// pipelines windows — window w decodes while the rounds of w+1… are
// still arriving — over per-connection scratch arenas from the sweep
// engine's DecoderPool, so a committed correction is bit-identical to
// what an offline batch sweep would produce for the same syndrome.
//
// The SLO is defended at every boundary, and every defense is counted:
//
//   - admission: at most MaxStreams concurrent streams (excess requests
//     get an immediate 429) and a bounded decode queue — a window that
//     finds the queue full is shed with an explicit per-window verdict
//     instead of silently adding latency (ShedRounds);
//   - decode deadlines: a window that outlives Config.DecodeTimeout
//     climbs the sweep engine's decode-attempt ladder (TimeoutRounds,
//     DegradedRounds, FailedRounds);
//   - slow clients: every read and write carries a deadline, so a hung
//     client costs one stream slot for ReadTimeout, not forever
//     (HungClients), and a client that stops reading its corrections is
//     cut off at WriteTimeout, and a request line over frame.MaxLine
//     ends its stream torn instead of growing a buffer (StreamsTorn);
//   - draining: Drain stops intake, finishes every window already
//     received in full, flushes the results, and closes each stream
//     with a drained trailer — zero committed rounds are lost.
//
// Latency accounting (the /statz p50/p99/p999 histogram) flows through
// the injectable Clock; the wall-clock default lives behind two
// annotated methods and nothing the corrections depend on ever reads
// time.
package rtd

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fpn/flagproxy/internal/experiment"
	"github.com/fpn/flagproxy/internal/frame"
)

// Options configures NewServer. Online is required; everything else
// has serviceable defaults.
type Options struct {
	// Online is the decode stack to serve (experiment.Pipeline.NewOnline).
	Online *experiment.Online
	// MaxStreams caps concurrent syndrome streams; excess requests are
	// refused with 429. 0 means 16.
	MaxStreams int
	// QueueDepth bounds the decode queue shared by all streams; a
	// window submitted to a full queue is shed. 0 means 64.
	QueueDepth int
	// Workers is the decode worker count. 0 means GOMAXPROCS.
	Workers int
	// MaxSessions caps how many cut resumable streams the server keeps
	// state for (oldest evicted first); 0 means 64. A stream consumes a
	// session slot only when it named an id and died mid-stream.
	MaxSessions int
	// ReadTimeout bounds the wait for each request frame; a client
	// silent for longer is a hung client and its stream is closed. 0
	// means 30s.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write; a client that stops
	// reading corrections forfeits the rest of its results. 0 means 30s.
	WriteTimeout time.Duration
	// Clock injects time for latency accounting and decode deadlines;
	// nil means the wall clock.
	Clock Clock
	// Log, when non-nil, receives one-line operational notes.
	Log io.Writer
	// OnLatency, when non-nil, observes every decoded window (the
	// latency-log seam; called from decode workers, must be
	// goroutine-safe).
	OnLatency func(LatencySample)
}

// LatencySample is one decoded window's latency record.
type LatencySample struct {
	Window  int
	Status  string
	Decoder string
	Ns      int64
}

// Stats is a point-in-time snapshot of the service counters, the
// /statz payload. All *Rounds counters are measured in measurement
// rounds (a window accounts for RoundsPerWindow of them).
type Stats struct {
	Decoder         string `json:"decoder"`
	Fingerprint     string `json:"fingerprint"`
	RoundsPerWindow int    `json:"rounds_per_window"`
	Draining        bool   `json:"draining"`

	Streams     int64 `json:"streams"`      // syndrome streams admitted
	StreamsShed int64 `json:"streams_shed"` // requests refused at admission (429)
	StreamsTorn int64 `json:"streams_torn"` // streams ended by a framing/protocol violation or disconnect
	HungClients int64 `json:"hung_clients"` // streams ended by a request read deadline

	Reconnects            int64 `json:"reconnects"`              // cut streams adopted by a resume handshake
	ResumedRounds         int64 `json:"resumed_rounds"`          // rounds carried over a reconnect instead of re-decoded
	DuplicateRoundRejects int64 `json:"duplicate_round_rejects"` // replayed already-committed windows refused

	RoundsReceived  int64 `json:"rounds_received"`  // round frames accepted
	CommittedRounds int64 `json:"committed_rounds"` // rounds whose correction was committed (ok + degraded)
	TimeoutRounds   int64 `json:"timeout_rounds"`   // rounds whose primary decode hit the deadline
	DegradedRounds  int64 `json:"degraded_rounds"`  // rounds committed by the fallback chain
	ShedRounds      int64 `json:"shed_rounds"`      // rounds refused by the full decode queue
	FailedRounds    int64 `json:"failed_rounds"`    // rounds whose whole decoder chain failed
	DroppedRounds   int64 `json:"dropped_rounds"`   // rounds of windows never completed (torn/hung/drained streams)
	DecodeErrors    int64 `json:"decode_errors"`    // windows whose decoder returned an error

	Windows int64 `json:"windows"` // windows decoded (latency samples)
	P50Ns   int64 `json:"p50_ns"`
	P99Ns   int64 `json:"p99_ns"`
	P999Ns  int64 `json:"p999_ns"`
}

type counters struct {
	streams, streamsShed, streamsTorn, hungClients          atomic.Int64
	roundsReceived, committedRounds, timeoutRounds          atomic.Int64
	degradedRounds, shedRounds, failedRounds, droppedRounds atomic.Int64
	decodeErrors                                            atomic.Int64
	reconnects, resumedRounds, dupRoundRejects              atomic.Int64
}

// Server is the online decode service. Build with NewServer, expose
// Handler over any net/http server, Drain on shutdown, then Close.
type Server struct {
	opt     Options            //fpnvet:unguarded immutable after NewServer
	o       *experiment.Online //fpnvet:unguarded immutable after NewServer
	ladder  *experiment.Ladder //fpnvet:unguarded immutable after NewServer
	clock   Clock              //fpnvet:unguarded immutable after NewServer
	fp      string             //fpnvet:unguarded immutable after NewServer
	decName string             //fpnvet:unguarded immutable after NewServer
	rpw     int                //fpnvet:unguarded immutable after NewServer (rounds per window: the circuit's full round span)
	numDet  int
	roundOf []int // detector index → round

	readTimeout, writeTimeout time.Duration //fpnvet:unguarded immutable after NewServer

	queue   chan *window
	admit   chan struct{}
	hist    Histogram //fpnvet:unguarded Histogram carries its own mutex
	ctrs    counters  //fpnvet:unguarded every field is an atomic
	winPool sync.Pool

	maxSessions int //fpnvet:unguarded immutable after NewServer

	mu        sync.Mutex
	streams   map[*stream]struct{} //fpnvet:guardedby mu
	draining  bool                 //fpnvet:guardedby mu
	sessions  map[string]*session  //fpnvet:guardedby mu
	sessOrder []string             //fpnvet:guardedby mu (stash order, oldest first, for eviction)
	drained   chan struct{}
	drainOnce sync.Once

	workersWG   sync.WaitGroup
	stopWorkers chan struct{}
	closeOnce   sync.Once
}

// NewServer builds the service around an online decode stack and starts
// its decode workers.
func NewServer(opt Options) (*Server, error) {
	if opt.Online == nil {
		return nil, fmt.Errorf("rtd: Options.Online is required")
	}
	c := opt.Online.Circuit()
	if len(c.Detectors) == 0 {
		return nil, fmt.Errorf("rtd: serving circuit has no detectors")
	}
	roundOf := make([]int, len(c.Detectors))
	for i, d := range c.Detectors {
		roundOf[i] = d.Round
	}
	cfg := opt.Online.Config()
	s := &Server{
		opt:          opt,
		o:            opt.Online,
		clock:        opt.Clock,
		fp:           cfg.Fingerprint(),
		decName:      cfg.Decoder.String(),
		rpw:          RoundsPerWindow(c),
		numDet:       len(c.Detectors),
		roundOf:      roundOf,
		readTimeout:  opt.ReadTimeout,
		writeTimeout: opt.WriteTimeout,
		streams:      map[*stream]struct{}{},
		sessions:     map[string]*session{},
		drained:      make(chan struct{}),
		stopWorkers:  make(chan struct{}),
	}
	s.maxSessions = opt.MaxSessions
	if s.maxSessions <= 0 {
		s.maxSessions = 64
	}
	if s.clock == nil {
		s.clock = wallClock{}
	}
	s.ladder = opt.Online.Ladder(s.clock.After)
	if s.readTimeout <= 0 {
		s.readTimeout = 30 * time.Second
	}
	if s.writeTimeout <= 0 {
		s.writeTimeout = 30 * time.Second
	}
	maxStreams := opt.MaxStreams
	if maxStreams <= 0 {
		maxStreams = 16
	}
	depth := opt.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s.admit = make(chan struct{}, maxStreams)
	s.queue = make(chan *window, depth)
	words := (s.numDet + 63) / 64
	s.winPool.New = func() any { return &window{words: make([]uint64, words)} }
	for i := 0; i < workers; i++ {
		s.workersWG.Add(1)
		go s.worker()
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opt.Log != nil {
		fmt.Fprintf(s.opt.Log, "rtd: "+format+"\n", args...)
	}
}

// Stats snapshots the counters and latency quantiles.
func (s *Server) Stats() Stats {
	return Stats{
		Decoder:               s.decName,
		Fingerprint:           s.fp,
		RoundsPerWindow:       s.rpw,
		Draining:              s.isDraining(),
		Streams:               s.ctrs.streams.Load(),
		StreamsShed:           s.ctrs.streamsShed.Load(),
		StreamsTorn:           s.ctrs.streamsTorn.Load(),
		HungClients:           s.ctrs.hungClients.Load(),
		Reconnects:            s.ctrs.reconnects.Load(),
		ResumedRounds:         s.ctrs.resumedRounds.Load(),
		DuplicateRoundRejects: s.ctrs.dupRoundRejects.Load(),
		RoundsReceived:        s.ctrs.roundsReceived.Load(),
		CommittedRounds:       s.ctrs.committedRounds.Load(),
		TimeoutRounds:         s.ctrs.timeoutRounds.Load(),
		DegradedRounds:        s.ctrs.degradedRounds.Load(),
		ShedRounds:            s.ctrs.shedRounds.Load(),
		FailedRounds:          s.ctrs.failedRounds.Load(),
		DroppedRounds:         s.ctrs.droppedRounds.Load(),
		DecodeErrors:          s.ctrs.decodeErrors.Load(),
		Windows:               s.hist.Count(),
		P50Ns:                 int64(s.hist.Quantile(0.50)),
		P99Ns:                 int64(s.hist.Quantile(0.99)),
		P999Ns:                int64(s.hist.Quantile(0.999)),
	}
}

// Handler routes the service's endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statz", s.handleStatz)
	mux.HandleFunc("/v1/stream", s.handleStream)
	mux.HandleFunc("/v1/resume", s.handleResume)
	return mux
}

// handleResume answers the idempotent resume query: does the server
// still hold state for a named stream, what window comes next, and
// which results the client missed while the connection was dying. The
// query never mutates the session — only a stream header that adopts it
// does — so a client may ask as many times as its retries need.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	_ = http.NewResponseController(w).SetWriteDeadline(s.clock.Now().Add(s.writeTimeout))
	id := r.URL.Query().Get("stream")
	have, err := strconv.Atoi(r.URL.Query().Get("have"))
	if id == "" || err != nil || have < 0 {
		http.Error(w, "rtd: resume needs stream=<id> and have=<result count>", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.resumeInfo(id, have))
}

func (s *Server) resumeInfo(id string, have int) ResumeInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return ResumeInfo{Status: ResumeUnknown}
	}
	info := ResumeInfo{Status: ResumeKnown, NextWindow: len(sess.results)}
	if have < len(sess.results) {
		info.Replay = append([]Result(nil), sess.results[have:]...)
	}
	return info
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	_ = http.NewResponseController(w).SetWriteDeadline(s.clock.Now().Add(s.writeTimeout))
	if s.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	_ = http.NewResponseController(w).SetWriteDeadline(s.clock.Now().Add(s.writeTimeout))
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.Stats())
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops intake and blocks until every active stream has flushed:
// new requests are refused, blocked reads are aborted, windows already
// received in full still decode, and each stream ends with a drained
// trailer. Safe to call more than once and from any goroutine.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	//fpnvet:orderless every active stream gets the same abort; order cannot matter
	for st := range s.streams {
		st.abortRead()
	}
	if len(s.streams) == 0 {
		s.drainOnce.Do(func() { close(s.drained) })
	}
	s.mu.Unlock()
	<-s.drained
}

// Close stops the decode workers. Call after Drain; windows still
// queued by undrained streams would be stranded.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.stopWorkers) })
	s.workersWG.Wait()
}

func (s *Server) register(st *stream) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.streams[st] = struct{}{}
	return true
}

func (s *Server) unregister(st *stream) {
	s.mu.Lock()
	delete(s.streams, st)
	if s.draining && len(s.streams) == 0 {
		s.drainOnce.Do(func() { close(s.drained) })
	}
	s.mu.Unlock()
}

// window is one round span's assembled syndrome: a detector bitset plus
// its position in the stream. Windows are pooled; words are sized once
// for the serving circuit.
type window struct {
	idx     int
	words   []uint64
	defects []int32 // the decode input, built from words by fired
	st      *stream
}

// fired returns the window's defect list: its fired detector ids in
// ascending order, reusing the window's buffer.
func (w *window) fired() []int32 {
	w.defects = w.defects[:0]
	for i, word := range w.words {
		for ; word != 0; word &= word - 1 {
			w.defects = append(w.defects, int32(i<<6+bits.TrailingZeros64(word)))
		}
	}
	return w.defects
}

func (s *Server) newWindow(st *stream, idx int) *window {
	w := s.winPool.Get().(*window)
	for i := range w.words {
		w.words[i] = 0
	}
	w.idx, w.st = idx, st
	return w
}

func (s *Server) releaseWindow(w *window) {
	w.st = nil
	s.winPool.Put(w)
}

// wres is one window's outcome on its way to the stream writer.
type wres struct {
	win    int
	status string
	dec    string
	flips  []int
}

// session is the stashed state of a cut resumable stream: every result
// committed so far, in window order. len(results) is the next window
// the resumed stream must start at.
type session struct {
	results []Result
}

// stream is one live syndrome connection: the reader (handler
// goroutine) assembles and submits windows; the writer goroutine
// reorders finished windows and streams the result frames back.
type stream struct {
	srv        *Server
	w          http.ResponseWriter
	rc         *http.ResponseController
	results    chan wres
	noMore     chan struct{} // closed by the reader after its last submission
	submitted  int           // results the writer must consume; reader-owned until noMore
	writerDone chan struct{}
	written    int  // result frames on the wire; writer-owned until writerDone
	writeErr   bool // the client stopped reading; discard the rest
	aborted    atomic.Bool
	sawEOF     bool // the last request read reached the body's end; reader-owned

	// Resume state. id and start are set while the header is processed,
	// before the writer goroutine exists; keep accumulates every
	// committed result in window order (writer-owned until writerDone)
	// so a cut stream can be stashed as a session.
	id    string
	start int // absolute index of this segment's first window
	keep  []Result
}

// abortRead forces any pending or future request read to fail
// immediately — the drain wake-up. The flag closes the race with a
// reader that is between frames: whichever of the deadline and the next
// SetReadDeadline lands last, the read still aborts.
func (st *stream) abortRead() {
	st.aborted.Store(true)
	_ = st.rc.SetReadDeadline(time.Unix(1, 0))
}

func (st *stream) writeFrame(payload any) error {
	line, err := frame.Encode(frameVersion, payload)
	if err != nil {
		return err
	}
	_ = st.rc.SetWriteDeadline(st.srv.clock.Now().Add(st.srv.writeTimeout))
	if _, err := st.w.Write(line); err != nil {
		return err
	}
	return st.rc.Flush()
}

// writer drains results until every submitted window has reported,
// writing frames in strictly ascending window order. A write failure
// (slow or gone client) flips the stream into discard mode — results
// keep draining so decode workers never block on a dead stream.
func (st *stream) writer() {
	defer close(st.writerDone)
	pending := map[int]wres{}
	next := st.start
	received := 0
	done := false
	for {
		if done && received == st.submitted {
			return
		}
		var r wres
		if done {
			r = <-st.results
		} else {
			select {
			case r = <-st.results:
			case <-st.noMore:
				done = true
				continue
			}
		}
		received++
		pending[r.win] = r
		for {
			q, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			res := Result{Window: q.win, Status: q.status, Decoder: q.dec, Flips: q.flips}
			if st.id != "" {
				// Keep the committed result even when the wire is dead:
				// the resume handshake replays it instead of re-decoding.
				st.keep = append(st.keep, res)
			}
			if st.writeErr {
				continue
			}
			if err := st.writeFrame(res); err != nil {
				st.writeErr = true
				st.srv.logf("stream write failed at window %d: %v", q.win, err)
				continue
			}
			st.written++
		}
	}
}

// streamEnd classifies how the reader finished.
type streamEnd struct {
	fatal         string // non-empty → written as a Fatal frame
	torn          bool
	hung          bool
	drained       bool
	droppedRounds int // rounds of a window that never completed
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	// Rejections and the pre-stream handshake share the write timeout;
	// once the stream is up, writeFrame re-arms a fresh deadline per
	// frame and readLine does the same on the read side.
	_ = http.NewResponseController(w).SetWriteDeadline(s.clock.Now().Add(s.writeTimeout))
	if r.Method != http.MethodPost {
		http.Error(w, "rtd: POST required", http.StatusMethodNotAllowed)
		return
	}
	select {
	case s.admit <- struct{}{}:
	default:
		s.ctrs.streamsShed.Add(1)
		http.Error(w, "rtd: stream limit reached, retry later", http.StatusTooManyRequests)
		return
	}
	defer func() { <-s.admit }()
	st := &stream{
		srv:        s,
		w:          w,
		rc:         http.NewResponseController(w),
		results:    make(chan wres, 16),
		noMore:     make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	if !s.register(st) {
		http.Error(w, "rtd: draining", http.StatusServiceUnavailable)
		return
	}
	defer s.unregister(st)
	s.ctrs.streams.Add(1)
	// Full duplex lets result frames stream back while rounds are still
	// arriving; without it (non-HTTP/1 transports) they buffer until the
	// handler returns, which only costs latency, never correctness.
	_ = st.rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/jsonl")

	br := bufio.NewReaderSize(r.Body, 64*1024)
	end, headerOK := s.readHeader(st, br)
	if headerOK {
		// The writer starts only after the header (and any resume
		// adoption) has fixed st.start and st.keep.
		go st.writer()
		end = s.readRounds(st, br)
		close(st.noMore)
		<-st.writerDone
	}

	if end.torn {
		s.ctrs.streamsTorn.Add(1)
	}
	if end.hung {
		s.ctrs.hungClients.Add(1)
	}
	if end.droppedRounds > 0 {
		s.ctrs.droppedRounds.Add(int64(end.droppedRounds))
	}
	if st.id != "" && headerOK && (end.torn || end.hung || st.writeErr) {
		// The stream died mid-flight: stash what was committed so the
		// client's resume handshake can continue instead of restarting.
		s.stash(st)
	}
	// The reader owns the connection again now that the writer is done:
	// fatal verdict (if any), then the counted trailer. The trailer
	// counts result frames only.
	if end.fatal != "" && !st.writeErr {
		if err := st.writeFrame(Fatal{Err: end.fatal}); err != nil {
			st.writeErr = true
		}
	}
	if !st.writeErr {
		_ = st.writeFrame(Trailer{End: st.written, Drained: end.drained})
	}
	if !st.sawEOF {
		// If net/http's post-handler drain reaches EOF, its background
		// read races the next keep-alive read ("invalid concurrent
		// Body.Read call"); an expired read deadline stops it short.
		st.abortRead()
	}
}

// readLine reads one request frame under a fresh read deadline. A line
// over frame.MaxLine ends the stream torn: a client cannot make the
// server buffer an unbounded line.
func (s *Server) readLine(st *stream, br *bufio.Reader) ([]byte, error) {
	_ = st.rc.SetReadDeadline(s.clock.Now().Add(s.readTimeout))
	if st.aborted.Load() {
		_ = st.rc.SetReadDeadline(time.Unix(1, 0))
	}
	line, err := frame.ReadLine(br)
	st.sawEOF = err == io.EOF
	return line, err
}

// classifyReadErr sorts a request read failure into drain, hung client
// or torn stream.
func (s *Server) classifyReadErr(err error, partial int) streamEnd {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		if s.isDraining() {
			return streamEnd{drained: true, droppedRounds: partial}
		}
		return streamEnd{hung: true, droppedRounds: partial, fatal: "rtd: hung client: no frame within the read deadline"}
	}
	return streamEnd{torn: true, droppedRounds: partial, fatal: fmt.Sprintf("rtd: torn stream: %v", err)}
}

// readHeader consumes and validates the stream header, including the
// resume adoption for named streams. ok=false means the stream is over
// before any round was read; end carries the verdict.
func (s *Server) readHeader(st *stream, br *bufio.Reader) (end streamEnd, ok bool) {
	line, err := s.readLine(st, br)
	if err != nil {
		return s.classifyReadErr(err, 0), false
	}
	rec, err := frame.Decode(line, frameVersion)
	if err != nil {
		return streamEnd{torn: true, fatal: "rtd: " + err.Error()}, false
	}
	var hdr Header
	if err := json.Unmarshal(rec, &hdr); err != nil || hdr.Stream != StreamName {
		return streamEnd{torn: true, fatal: fmt.Sprintf("rtd: stream must open with a %q header", StreamName)}, false
	}
	if hdr.Fingerprint != s.fp {
		return streamEnd{fatal: fmt.Sprintf("rtd: fingerprint mismatch: client %s, serving %s (mismatched binaries or flags?)", hdr.Fingerprint, s.fp)}, false
	}
	if hdr.ID == "" {
		if hdr.StartWindow != 0 {
			return streamEnd{torn: true, fatal: "rtd: a start window needs a stream id to resume"}, false
		}
		return streamEnd{}, true
	}
	return s.adopt(st, hdr)
}

// adopt matches a named stream header against the session table. A held
// session resumes if and only if the header's start window is exactly
// the next uncommitted one: lower is a replay of committed rounds
// (refused — they must never commit twice), higher is a gap. An unknown
// id is accepted at its declared start — the restarted-server case,
// where idempotence comes from the client resending exactly the
// uncommitted suffix.
func (s *Server) adopt(st *stream, hdr Header) (streamEnd, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st.id = hdr.ID
	sess, ok := s.sessions[hdr.ID]
	if !ok {
		st.start = hdr.StartWindow
		return streamEnd{}, true
	}
	have := len(sess.results)
	switch {
	case hdr.StartWindow < have:
		s.ctrs.dupRoundRejects.Add(1)
		st.id = "" // refuse adoption; the session stays for a correct retry
		return streamEnd{torn: true, fatal: fmt.Sprintf("rtd: replayed window: stream %q already committed windows up to %d, resume must start there (got %d)", hdr.ID, have, hdr.StartWindow)}, false
	case hdr.StartWindow > have:
		st.id = ""
		return streamEnd{torn: true, fatal: fmt.Sprintf("rtd: window gap: stream %q has %d committed windows, cannot resume at %d", hdr.ID, have, hdr.StartWindow)}, false
	}
	delete(s.sessions, hdr.ID)
	s.dropOrderLocked(hdr.ID)
	st.start, st.keep = have, sess.results
	s.ctrs.reconnects.Add(1)
	s.ctrs.resumedRounds.Add(int64(have) * int64(s.rpw))
	return streamEnd{}, true
}

// stash parks a cut stream's committed results in the session table,
// evicting the oldest session over MaxSessions.
func (s *Server) stash(st *stream) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[st.id]; !ok {
		s.sessOrder = append(s.sessOrder, st.id)
	}
	s.sessions[st.id] = &session{results: st.keep}
	for len(s.sessions) > s.maxSessions && len(s.sessOrder) > 0 {
		evict := s.sessOrder[0]
		s.sessOrder = s.sessOrder[1:]
		delete(s.sessions, evict)
		s.logf("session %q evicted (session table over %d)", evict, s.maxSessions)
	}
}

// dropOrderLocked removes id from the eviction order. Caller holds mu.
func (s *Server) dropOrderLocked(id string) {
	for i, v := range s.sessOrder {
		if v == id {
			s.sessOrder = append(s.sessOrder[:i], s.sessOrder[i+1:]...)
			return
		}
	}
}

// readRounds consumes round frames until the trailer, a violation, a
// hung client or a drain, assembling windows and submitting each
// completed one for decode (or shedding it when the queue is full).
func (s *Server) readRounds(st *stream, br *bufio.Reader) streamEnd {
	var win *window     // window being assembled, nil between windows
	nextWin := st.start // index the next window must carry
	partial := 0        // rounds buffered in win
	rounds := 0         // round frames accepted in total
	for {
		line, err := s.readLine(st, br)
		if err != nil {
			return s.classifyReadErr(err, partial)
		}
		rec, err := frame.Decode(line, frameVersion)
		if err != nil {
			return streamEnd{torn: true, droppedRounds: partial, fatal: "rtd: " + err.Error()}
		}
		if end, ok := frame.Trailer(rec); ok {
			if end != rounds {
				return streamEnd{torn: true, droppedRounds: partial, fatal: fmt.Sprintf("rtd: trailer claims %d rounds, stream carried %d", end, rounds)}
			}
			if win != nil {
				return streamEnd{torn: true, droppedRounds: partial, fatal: fmt.Sprintf("rtd: trailer inside window %d (round %d of %d)", win.idx, partial, s.rpw)}
			}
			// Read to EOF, so net/http has nothing left to drain.
			switch line, err := s.readLine(st, br); {
			case len(line) > 0:
				return streamEnd{torn: true, fatal: "rtd: torn stream: data after the trailer"}
			case err != io.EOF:
				return s.classifyReadErr(err, 0)
			}
			return streamEnd{drained: s.isDraining()}
		}
		var rr Round
		if err := json.Unmarshal(rec, &rr); err != nil {
			return streamEnd{torn: true, droppedRounds: partial, fatal: fmt.Sprintf("rtd: bad round record: %v", err)}
		}
		if win == nil {
			if rr.Window < nextWin {
				s.ctrs.dupRoundRejects.Add(1)
				return streamEnd{torn: true, droppedRounds: partial, fatal: fmt.Sprintf("rtd: replayed round (w=%d already committed, next is w=%d)", rr.Window, nextWin)}
			}
			if rr.Window != nextWin || rr.Round != 0 {
				return streamEnd{torn: true, droppedRounds: partial, fatal: fmt.Sprintf("rtd: out-of-order frame (w=%d r=%d, want w=%d r=0)", rr.Window, rr.Round, nextWin)}
			}
			win = s.newWindow(st, nextWin)
			nextWin++
		} else if rr.Window != win.idx || rr.Round != partial {
			return streamEnd{torn: true, droppedRounds: partial, fatal: fmt.Sprintf("rtd: out-of-order frame (w=%d r=%d, want w=%d r=%d)", rr.Window, rr.Round, win.idx, partial)}
		}
		prev := -1
		for _, d := range rr.Fired {
			if d <= prev || d >= s.numDet {
				s.releaseWindow(win)
				return streamEnd{torn: true, droppedRounds: partial, fatal: fmt.Sprintf("rtd: window %d round %d: bad detector index %d", rr.Window, rr.Round, d)}
			}
			if s.roundOf[d] != rr.Round {
				s.releaseWindow(win)
				return streamEnd{torn: true, droppedRounds: partial, fatal: fmt.Sprintf("rtd: window %d round %d: detector %d belongs to round %d", rr.Window, rr.Round, d, s.roundOf[d])}
			}
			win.words[d>>6] |= 1 << (uint(d) & 63)
			prev = d
		}
		partial++
		rounds++
		s.ctrs.roundsReceived.Add(1)
		if partial == s.rpw {
			s.submit(st, win)
			win, partial = nil, 0
		}
	}
}

// submit hands a completed window to the decode queue, or sheds it with
// an explicit verdict when the queue is full — bounded latency beats
// silent backlog.
func (s *Server) submit(st *stream, win *window) {
	st.submitted++
	select {
	case s.queue <- win:
	default:
		s.ctrs.shedRounds.Add(int64(s.rpw))
		st.results <- wres{win: win.idx, status: StatusShed}
		s.releaseWindow(win)
	}
}

// worker owns one primary decoder handle and decodes queued windows
// until the server closes. A handle abandoned at a deadline stays with
// its stuck goroutine; the worker reacquires, exactly like the sweep
// engine's shard workers.
func (s *Server) worker() {
	defer s.workersWG.Done()
	pd := s.o.Acquire()
	defer func() { pd.Release() }()
	for {
		select {
		case <-s.stopWorkers:
			return
		case win := <-s.queue:
			res := s.decodeWindow(&pd, win)
			st := win.st
			s.releaseWindow(win)
			st.results <- res
		}
	}
}

// verdictStatus is each ladder verdict's per-window result status.
var verdictStatus = [...]string{
	experiment.VerdictOK: StatusOK, experiment.VerdictRescued: StatusDegraded, experiment.VerdictDegraded: StatusDegraded,
	experiment.VerdictFailed: StatusFailed, experiment.VerdictDeadline: StatusDeadline,
}

// decodeWindow climbs the decode-attempt ladder for one window and
// accounts for the verdict; pd is replaced when abandoned.
func (s *Server) decodeWindow(pd **experiment.PooledDecoder, win *window) wres {
	rpw := int64(s.rpw)
	start := s.clock.Now()
	defects := win.fired()
	out := experiment.Climb(s.ladder, pd, (*experiment.DecoderPool).Get, func(h *experiment.PooledDecoder) ([]int, error) {
		corr, err := h.Decode(defects)
		if err != nil {
			return nil, err
		}
		// corr aliases the scratch arena; extract the flips before the
		// handle decodes anything else.
		var flips []int
		for i, c := range corr {
			if c {
				flips = append(flips, i)
			}
		}
		return flips, nil
	})
	if out.Verdict.TimedOut() {
		s.ctrs.timeoutRounds.Add(rpw)
		s.logf("window %d: primary decode deadline %v exceeded, walked fallback chain", win.idx, s.o.Config().DecodeTimeout)
	}
	if out.Fault != nil {
		s.logf("window %d: %s decoder panicked: %v", win.idx, out.Kind, out.Fault.Value)
	}
	status := verdictStatus[out.Verdict]
	switch {
	case out.Err != nil:
		s.ctrs.decodeErrors.Add(1)
		status = StatusError
	case out.Verdict.Failed():
		s.ctrs.failedRounds.Add(rpw)
	default:
		s.ctrs.committedRounds.Add(rpw)
		if out.Verdict != experiment.VerdictOK {
			s.ctrs.degradedRounds.Add(rpw)
		}
	}
	lat := s.clock.Now().Sub(start)
	s.hist.Record(lat)
	if s.opt.OnLatency != nil {
		s.opt.OnLatency(LatencySample{Window: win.idx, Status: status, Decoder: out.Kind.String(), Ns: int64(lat)})
	}
	return wres{win: win.idx, status: status, dec: out.Kind.String(), flips: out.Val}
}
