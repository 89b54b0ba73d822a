// Command decoded is the online decode service: it serves a rotated
// surface code's decoder over HTTP, accepting CRC32-C-framed streams of
// per-round syndromes and returning per-window corrections under an
// explicit latency SLO — bounded admission, per-window decode deadlines
// with fallback-chain degradation, slow-client cutoffs, and drain-on-
// SIGTERM that flushes every window already received in full. See
// EXPERIMENTS.md ("Online decoding") for the protocol and the fault
// matrix.
//
// Server mode (default):
//
//	decoded -listen 127.0.0.1:9912 -d 3 -p 5e-3 -fallback plain-mwpm -decode-timeout 10ms
//
// Client mode (load generator / verifier; the circuit flags must match
// the server's, enforced by the configuration fingerprint):
//
//	decoded -connect http://127.0.0.1:9912 -d 3 -p 5e-3 -shots 64 -verify
//
// The client's -chaos flag replays the service fault plans (torn,
// disconnect, hang) against a live server, for the drain test and for
// poking at a deployment.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/fpn/flagproxy/internal/chaos"
	"github.com/fpn/flagproxy/internal/checkpoint"
	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/decoder"
	"github.com/fpn/flagproxy/internal/experiment"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/rtd"
	"github.com/fpn/flagproxy/internal/sim"
	"github.com/fpn/flagproxy/internal/surface"
)

// exitInterrupted mirrors cmd/ber: the status for a service cut short by
// a second signal before the drain finished.
const exitInterrupted = 130

var fpnArch = fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(2)
	}
	o, err := buildOnline(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "decoded:", err)
		os.Exit(1)
	}
	if cfg.connectURL != "" {
		os.Exit(runClient(cfg, o))
	}
	os.Exit(runServer(cfg, o))
}

// cliConfig is the parsed and validated command line.
type cliConfig struct {
	// Shared circuit/decoder knobs (fingerprinted; client and server must
	// agree).
	distance int
	p        float64
	rounds   int
	basis    css.Basis
	decoder  experiment.DecoderKind
	fallback []experiment.DecoderKind
	seed     int64

	// Server knobs.
	listenAddr   string
	decTimeout   time.Duration
	queueDepth   int
	maxStreams   int
	workers      int
	readTimeout  time.Duration
	writeTimeout time.Duration
	latlogPath   string

	// Client knobs.
	connectURL string
	shots      int
	verify     bool
	chaosMode  string
	showStats  bool
}

func parseArgs(args []string) (*cliConfig, error) {
	fs := flag.NewFlagSet("decoded", flag.ContinueOnError)
	d := fs.Int("d", 3, "rotated surface code distance to serve")
	p := fs.Float64("p", 5e-3, "physical error rate of the serving noise model")
	rounds := fs.Int("rounds", 0, "measurement rounds per window (0 = distance)")
	basisFlag := fs.String("basis", "Z", "memory basis: X or Z")
	decFlag := fs.String("decoder", "flagged-mwpm", "primary decoder kind")
	fallbackFlag := fs.String("fallback", "", "comma-separated fallback decoder kinds walked when the primary times out or panics (e.g. plain-mwpm)")
	seed := fs.Int64("seed", 11, "noise-model seed (client sampling; part of the fingerprint)")

	listen := fs.String("listen", "127.0.0.1:9912", "serve on this address")
	decTimeout := fs.Duration("decode-timeout", 0, "per-window decode deadline; a window over it degrades to -fallback and is counted (0 = off)")
	queue := fs.Int("queue", 0, "decode queue depth; a window hitting a full queue is shed with an explicit verdict (0 = 64)")
	maxStreams := fs.Int("max-streams", 0, "concurrent syndrome streams; excess requests get 429 (0 = 16)")
	workers := fs.Int("workers", 0, "decode workers (0 = GOMAXPROCS)")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "per-frame request read deadline; silent clients are cut off and counted")
	writeTimeout := fs.Duration("write-timeout", 30*time.Second, "per-frame response write deadline; clients that stop reading forfeit the rest")
	latlog := fs.String("latlog", "", "append per-window latency samples to this CRC-framed JSONL file (empty = off)")

	connect := fs.String("connect", "", "run as client against the decoded server at this URL instead of serving")
	shots := fs.Int("shots", 64, "windows to stream in client mode")
	verify := fs.Bool("verify", false, "client mode: recompute every correction offline and require bit-identity")
	chaosFlag := fs.String("chaos", "", "client mode: send a faulted stream instead of a healthy one (torn, disconnect, hang, or cut — a resumable stream reset mid-body twice and resumed)")
	showStats := fs.Bool("stats", false, "client mode: print the server's /statz after the stream")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *d < 3 || *d%2 == 0 {
		return nil, fmt.Errorf("-d must be an odd distance >= 3 (got %d)", *d)
	}
	if *p <= 0 || *p >= 1 {
		return nil, fmt.Errorf("-p must be in (0, 1) (got %g)", *p)
	}
	if *rounds < 0 {
		return nil, fmt.Errorf("-rounds must be >= 0 (got %d)", *rounds)
	}
	var basis css.Basis
	switch strings.ToUpper(*basisFlag) {
	case "X":
		basis = css.X
	case "Z":
		basis = css.Z
	default:
		return nil, fmt.Errorf("-basis must be X or Z (got %q)", *basisFlag)
	}
	dec, err := decoderKindByName(*decFlag)
	if err != nil {
		return nil, err
	}
	var fallback []experiment.DecoderKind
	if *fallbackFlag != "" {
		for _, s := range strings.Split(*fallbackFlag, ",") {
			k, err := decoderKindByName(strings.TrimSpace(s))
			if err != nil {
				return nil, err
			}
			fallback = append(fallback, k)
		}
	}
	if *decTimeout < 0 {
		return nil, fmt.Errorf("-decode-timeout must be >= 0 (got %v)", *decTimeout)
	}
	if *queue < 0 || *maxStreams < 0 || *workers < 0 {
		return nil, fmt.Errorf("-queue, -max-streams and -workers must be >= 0")
	}
	if *readTimeout <= 0 || *writeTimeout <= 0 {
		return nil, fmt.Errorf("-read-timeout and -write-timeout must be positive")
	}
	if *shots <= 0 {
		return nil, fmt.Errorf("-shots must be positive (got %d)", *shots)
	}
	switch *chaosFlag {
	case "", "torn", "disconnect", "hang", "cut":
	default:
		return nil, fmt.Errorf("-chaos must be torn, disconnect, hang or cut (got %q)", *chaosFlag)
	}
	if *chaosFlag != "" && *connect == "" {
		return nil, fmt.Errorf("-chaos requires -connect")
	}
	// A cut stream resumes and assembles the complete result set, so
	// -verify composes with it — that pairing is the whole point of the
	// resume handshake. The other chaos modes end with a deliberately
	// incomplete stream, which -verify would always (correctly) fail.
	if *verify && *chaosFlag != "" && *chaosFlag != "cut" {
		return nil, fmt.Errorf("-verify needs a complete stream; use -chaos cut or drop -chaos")
	}
	return &cliConfig{
		distance: *d, p: *p, rounds: *rounds, basis: basis,
		decoder: dec, fallback: fallback, seed: *seed,
		listenAddr: *listen, decTimeout: *decTimeout, queueDepth: *queue,
		maxStreams: *maxStreams, workers: *workers,
		readTimeout: *readTimeout, writeTimeout: *writeTimeout, latlogPath: *latlog,
		connectURL: *connect, shots: *shots, verify: *verify,
		chaosMode: *chaosFlag, showStats: *showStats,
	}, nil
}

// decoderKindByName resolves a decoder flag against the canonical
// DecoderKind names.
func decoderKindByName(name string) (experiment.DecoderKind, error) {
	for k := experiment.FlaggedMWPM; k <= experiment.BPOSD; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown decoder kind %q (want one of flagged-mwpm, plain-mwpm, flagged-restriction, baseline-restriction, flagged-unionfind, bp-osd)", name)
}

// buildOnline constructs the decode stack both modes share; the client
// builds its own copy so the fingerprint handshake catches any drift
// between the two processes' configurations.
func buildOnline(cfg *cliConfig) (*experiment.Online, error) {
	l, err := surface.Rotated(cfg.distance)
	if err != nil {
		return nil, err
	}
	pl, err := experiment.NewPipeline(l.Code, fpnArch)
	if err != nil {
		return nil, err
	}
	return pl.NewOnline(experiment.Config{
		Code: l.Code, Arch: fpnArch, Basis: cfg.basis, Rounds: cfg.rounds,
		P: cfg.p, Seed: cfg.seed, Decoder: cfg.decoder, Fallback: cfg.fallback,
		DecodeTimeout: cfg.decTimeout,
	})
}

func runServer(cfg *cliConfig, o *experiment.Online) int {
	opt := rtd.Options{
		Online:       o,
		MaxStreams:   cfg.maxStreams,
		QueueDepth:   cfg.queueDepth,
		Workers:      cfg.workers,
		ReadTimeout:  cfg.readTimeout,
		WriteTimeout: cfg.writeTimeout,
		Log:          os.Stderr,
	}
	var latlog *checkpoint.LatencyLog
	if cfg.latlogPath != "" {
		var err error
		latlog, err = checkpoint.OpenLatencyLog(cfg.latlogPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "decoded:", err)
			return 1
		}
		opt.OnLatency = func(s rtd.LatencySample) {
			_ = latlog.Append(checkpoint.LatencyRec{Window: s.Window, Status: s.Status, Decoder: s.Decoder, Ns: s.Ns})
		}
	}
	s, err := rtd.NewServer(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "decoded:", err)
		return 1
	}
	ln, err := net.Listen("tcp", cfg.listenAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "decoded:", err)
		return 1
	}
	// Streams are long-lived by design, so no blanket read/write timeouts
	// here — the rtd server arms per-frame deadlines itself. The header
	// and idle timeouts bound everything outside an accepted stream.
	hsrv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { _ = hsrv.Serve(ln) }()
	// Parsed by scripts (decoded_drain.sh) to discover a :0 port.
	fmt.Fprintf(os.Stderr, "decoded: serving on %s (fingerprint %s)\n", ln.Addr(), o.Config().Fingerprint())

	// First SIGINT/SIGTERM drains: intake stops, in-flight windows flush,
	// every stream closes with a drained trailer, and the final counter
	// snapshot is printed. A second signal force-exits immediately so a
	// wedged drain (a decoder stuck past every deadline) can be escaped.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	<-sigs
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "decoded: second signal; forcing exit without drain")
		os.Exit(exitInterrupted)
	}()
	fmt.Fprintln(os.Stderr, "decoded: draining")
	s.Drain()
	_ = hsrv.Close()
	s.Close()
	if latlog != nil {
		_ = latlog.Close()
	}
	printStats(os.Stderr, s.Stats())
	fmt.Fprintln(os.Stderr, "decoded: drained; all completed windows were flushed")
	return 0
}

func runClient(cfg *cliConfig, o *experiment.Online) int {
	c := o.Circuit()
	smp := sim.NewBlockSampler(c, (cfg.shots+63)/64)
	if err := smp.Validate(0, cfg.shots); err != nil {
		fmt.Fprintln(os.Stderr, "decoded:", err)
		return 1
	}
	res := smp.Run(0, cfg.shots, cfg.seed)
	wins := rtd.BuildWindows(c, res, 0, cfg.shots)
	fp := o.Config().Fingerprint()
	cl := &rtd.Client{URL: cfg.connectURL}
	ctx := context.Background()

	var out *rtd.StreamOutcome
	var err error
	switch cfg.chaosMode {
	case "":
		out, err = cl.Stream(ctx, fp, wins)
	case "cut":
		// Partition drill: the transport resets the first two stream
		// POSTs mid-body at plan-chosen byte offsets, and the resumable
		// client rides the cuts out — salvage, /v1/resume handshake,
		// resend of exactly the uncommitted suffix. The assembled result
		// set must be complete, which is why -verify composes with this
		// mode and no other chaos mode.
		cl.HTTP = &http.Client{Transport: &chaos.NetFault{
			Plan: chaos.Plan{Seed: cfg.seed, Name: "decoded-cut"},
			Mode: chaos.NetReset, Times: 2, Path: "/v1/stream",
		}}
		out, err = cl.StreamResumable(ctx, fp, fmt.Sprintf("cut-%d", cfg.seed), wins, 4)
	default:
		frames, ferr := rtd.EncodeWindows(fp, wins)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "decoded:", ferr)
			return 1
		}
		rpw := rpwOf(c)
		plan := chaos.Plan{Seed: cfg.seed, Name: "decoded-" + cfg.chaosMode}
		switch cfg.chaosMode {
		case "torn":
			// Cut strictly inside the second round of the last window.
			out, err = cl.StreamBody(ctx, chaos.TornBody(plan, frames, 1+(len(wins)-1)*rpw+1))
		case "disconnect":
			// Vanish cleanly after all but the last window.
			out, err = cl.StreamBody(ctx, chaos.DisconnectBody(frames, 1+(len(wins)-1)*rpw))
		case "hang":
			// One full window, then silence until the server cuts us off.
			hb := chaos.NewHangingBody(frames, 1+rpw)
			defer hb.Release()
			out, err = cl.StreamBody(ctx, hb)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "decoded:", err)
		return 1
	}

	counts := map[string]int{}
	for _, r := range out.Results {
		counts[r.Status]++
	}
	fmt.Printf("decoded: %d results", len(out.Results))
	for _, st := range []string{rtd.StatusOK, rtd.StatusDegraded, rtd.StatusShed, rtd.StatusError, rtd.StatusDeadline, rtd.StatusFailed} {
		if counts[st] > 0 {
			fmt.Printf(" %s=%d", st, counts[st])
		}
	}
	if out.Drained {
		fmt.Printf(" drained")
	}
	if out.Reconnects > 0 {
		fmt.Printf(" reconnects=%d", out.Reconnects)
	}
	fmt.Println()
	if out.Fatal != "" {
		fmt.Printf("decoded: server verdict: %s\n", out.Fatal)
	}

	if cfg.verify {
		if code := verifyOutcome(o, res, out); code != 0 {
			return code
		}
	}
	if cfg.showStats {
		resp, err := http.Get(cfg.connectURL + "/statz")
		if err != nil {
			fmt.Fprintln(os.Stderr, "decoded:", err)
			return 1
		}
		defer func() { _ = resp.Body.Close() }()
		_, _ = io.Copy(os.Stdout, resp.Body)
	}
	return 0
}

// verifyOutcome recomputes every committed correction on the client's
// own decode stack — the exact offline path — and requires bit-identity.
func verifyOutcome(o *experiment.Online, res *sim.Result, out *rtd.StreamOutcome) int {
	pd := o.Acquire()
	defer pd.Release()
	var lanes decoder.Defects
	verified := 0
	for i, r := range out.Results {
		if !r.Committed() {
			fmt.Fprintf(os.Stderr, "decoded: verify: window %d not committed (status %s)\n", i, r.Status)
			return 1
		}
		if i%64 == 0 {
			lanes.Extract(res, i, min(64, res.Shots-i))
		}
		corr, err := pd.Decode(lanes.Lane(i % 64))
		if err != nil {
			fmt.Fprintln(os.Stderr, "decoded: verify:", err)
			return 1
		}
		var want []int
		for ob, c := range corr {
			if c {
				want = append(want, ob)
			}
		}
		if len(want) != len(r.Flips) {
			fmt.Fprintf(os.Stderr, "decoded: verify: window %d: online flips %v != offline %v\n", i, r.Flips, want)
			return 1
		}
		for j := range want {
			if want[j] != r.Flips[j] {
				fmt.Fprintf(os.Stderr, "decoded: verify: window %d: online flips %v != offline %v\n", i, r.Flips, want)
				return 1
			}
		}
		verified++
	}
	fmt.Printf("decoded: verify: %d/%d corrections bit-identical to offline decode\n", verified, len(out.Results))
	return 0
}

// rpwOf computes the rounds per window — the circuit's full round span,
// matching what the server derives for the same configuration.
func rpwOf(c *circuit.Circuit) int {
	rpw := 0
	for _, d := range c.Detectors {
		if d.Round+1 > rpw {
			rpw = d.Round + 1
		}
	}
	return rpw
}

func printStats(w io.Writer, st rtd.Stats) {
	fmt.Fprintf(w, "decoded: final stats: streams=%d shed=%d torn=%d hung=%d\n",
		st.Streams, st.StreamsShed, st.StreamsTorn, st.HungClients)
	fmt.Fprintf(w, "decoded: final stats: rounds received=%d committed=%d timeout=%d degraded=%d shed=%d failed=%d dropped=%d decode-errors=%d\n",
		st.RoundsReceived, st.CommittedRounds, st.TimeoutRounds, st.DegradedRounds,
		st.ShedRounds, st.FailedRounds, st.DroppedRounds, st.DecodeErrors)
	fmt.Fprintf(w, "decoded: final stats: windows=%d p50=%s p99=%s p999=%s\n",
		st.Windows, time.Duration(st.P50Ns), time.Duration(st.P99Ns), time.Duration(st.P999Ns))
}
