// Command ber runs the paper's memory experiments and reproduces the
// block-error-rate figures: Figure 17 (hyperbolic vs planar surface
// codes), Figure 18 (hyperbolic vs toric-hexagonal color codes),
// Figure 19 (flagged MWPM vs plain MWPM on the [[30,8,3,3]] code) and
// Figure 20 (flagged vs Chamberland-style Restriction decoding).
//
// Shot counts default to laptop scale; raise -shots (and sweep -ps) to
// approach the paper's cluster-scale statistics. The sharded engine
// spreads every point over -workers cores with bounded memory, and
// -target-errors / -max-ci stop a point early once its estimate is good
// enough — see EXPERIMENTS.md for a worked deep-BER example.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/fpn/flagproxy/internal/catalog"
	"github.com/fpn/flagproxy/internal/checkpoint"
	"github.com/fpn/flagproxy/internal/color"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/experiment"
	"github.com/fpn/flagproxy/internal/fabric"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/schedule"
	"github.com/fpn/flagproxy/internal/surface"
)

// exitInterrupted is the status for a sweep cut short by SIGINT or
// SIGTERM after flushing completed points and checkpoints — distinct
// from 1 (point errors) and 2 (usage errors) so wrappers can tell a
// clean kill-and-resume cycle from a real failure.
const exitInterrupted = 130

// exitUnreachable is the status for a -join worker that gave up because
// every coordinator address stayed dark through its whole retry budget
// (-max-retries) — distinct from interruption (130) and engine failure
// (1) so fleet wrappers can re-point or restart the worker instead of
// treating it as a decode bug.
const exitUnreachable = 3

// standbyFailThreshold is how many consecutive failed health probes a
// standby tolerates before declaring the primary dead and taking over.
// One failure is a blip; three at the probe cadence is a partition or a
// corpse either way — and a false positive is safe, because epoch
// fencing stops the fenced-out primary from committing anything.
const standbyFailThreshold = 3

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(2)
	}
	// First SIGINT/SIGTERM cancels the sweep context: workers stop at
	// shard boundaries, the current point's committed prefix is
	// checkpointed, and completed points stay printed. A second signal
	// force-exits immediately with the interrupted status — no waiting
	// on checkpoint flush — so a stuck teardown can always be escaped.
	// (signal.NotifyContext would keep swallowing signals after the
	// first one, making the second Ctrl-C a silent no-op.)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		cancel()
		<-sigs
		fmt.Fprintln(os.Stderr, "ber: second signal; forcing exit without checkpoint flush")
		os.Exit(exitInterrupted)
	}()
	if len(cfg.joinURLs) > 0 {
		// Worker mode: no sweep of our own — decode shards for the
		// coordinator at -join (failing over across the address list)
		// until it announces shutdown.
		id := cfg.workerID
		if id == "" {
			host, _ := os.Hostname()
			id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		err := fabric.RunWorker(ctx, fabric.WorkerOptions{
			URL: cfg.joinURLs[0], URLs: cfg.joinURLs[1:], ID: id,
			MaxRetries: cfg.maxRetries, Fallback: cfg.fallback, Log: os.Stderr,
		})
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "ber: worker interrupted; leased shards will be reassigned")
			os.Exit(exitInterrupted)
		}
		if errors.Is(err, fabric.ErrUnreachable) {
			fmt.Fprintln(os.Stderr, "ber:", err)
			os.Exit(exitUnreachable)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ber:", err)
			os.Exit(1)
		}
		return
	}
	r := &runner{
		ctx:          ctx,
		sweep:        experiment.NewSweep(),
		fig:          cfg.fig,
		shots:        cfg.shots,
		seed:         cfg.seed,
		workers:      cfg.workers,
		shard:        cfg.shard,
		targetErrors: cfg.targetErrors,
		maxCI:        cfg.maxCI,
		decTimeout:   cfg.decTimeout,
		fallback:     cfg.fallback,
	}
	if cfg.checkpointDir != "" {
		// Probe the directory's whole write protocol up front: a
		// read-only or misconfigured -checkpoint dir must fail here, not
		// minutes into the sweep at the first flush.
		if err := checkpoint.ProbeDir(cfg.checkpointDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		store, err := checkpoint.Open(cfg.checkpointDir)
		if err != nil {
			// Includes *checkpoint.CorruptRecordError: the store refuses
			// to resume over damaged state and its message names the
			// quarantine sidecar and the remediation.
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if store.TornTail() {
			fmt.Fprintln(os.Stderr, "ber: checkpoint file ended mid-record (torn tail); the fragment was dropped and the sweep resumes from the last durable state")
		}
		// The scheduling knobs (-decode-timeout, -fallback) are execution
		// strategy, deliberately outside the per-point fingerprint: a
		// resumed prefix stays valid under different knobs, but the
		// rescued-block accounting (timeout/fallback/degraded counts) can
		// differ from what a fresh run would report. Record them in the
		// store and warn loudly when a resume changes them mid-sweep.
		recordSchedKnobs(store, schedSignature(cfg.decTimeout, cfg.fallback), os.Stderr)
		r.ledger = checkpoint.Ledger{
			Store: store, Resume: cfg.resume,
			Report: func(err error) { fmt.Fprintln(os.Stderr, "ber: checkpoint write failed:", err) },
		}
	}
	var stopFabric func()
	if cfg.serveAddr != "" {
		// Coordinator mode: points are decoded by -join workers instead of
		// local goroutines, and the coordinator runs them under the ledger
		// (resume, commit-cadence checkpoints, final records).
		// The listener goes up before the coordinator exists so a standby
		// can be in the workers' -join lists from the start: it answers
		// 503 until the handler is swapped in at takeover.
		ln, err := net.Listen("tcp", cfg.serveAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ber:", err)
			os.Exit(1)
		}
		var live atomic.Pointer[http.Handler]
		// Every fabric exchange is one bounded JSON round trip (completion
		// bodies cap at 16 MiB), so blanket read/write timeouts are safe;
		// a wedged worker can never pin a coordinator connection open.
		srv := &http.Server{
			Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				if h := live.Load(); h != nil {
					(*h).ServeHTTP(w, req)
					return
				}
				http.Error(w, "fabric standby: not serving yet", http.StatusServiceUnavailable)
			}),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       time.Minute,
			WriteTimeout:      time.Minute,
		}
		go func() { _ = srv.Serve(ln) }()
		var failovers int64
		if cfg.standbyOf != "" {
			// Parsed by scripts (crash_resume.sh) to discover a :0 port
			// before promotion.
			fmt.Fprintf(os.Stderr, "ber: standby fabric on %s (primary %s)\n", ln.Addr(), cfg.standbyOf)
			if !standbyWait(ctx, cfg.standbyOf, cfg.standbyProbe) {
				fmt.Fprintln(os.Stderr, "ber: standby interrupted before takeover")
				os.Exit(exitInterrupted)
			}
			failovers = 1
			fmt.Fprintf(os.Stderr, "ber: primary %s dark for %d probes; standby taking over the sweep\n",
				cfg.standbyOf, standbyFailThreshold)
		}
		// NewCoordinator bumps and persists the ledger epoch, so even if
		// the primary is merely partitioned (not dead), its later commits
		// are fenced off — promotion is safe against false positives.
		co := fabric.NewCoordinator(fabric.Options{
			LeaseTTL: cfg.leaseTTL, Store: r.ledger.Store, Resume: cfg.resume,
			Log: os.Stderr, Failovers: failovers,
		})
		h := co.Handler()
		live.Store(&h)
		// Parsed by scripts (crash_resume.sh) to discover a :0 port.
		fmt.Fprintf(os.Stderr, "ber: serving fabric on %s\n", ln.Addr())
		r.fab, r.ledger = co, checkpoint.Ledger{}
		stopFabric = func() {
			co.Shutdown()
			// Let polling workers observe the shutdown before the
			// listener goes away, so they exit cleanly instead of
			// burning their retry budget on a dead socket.
			time.Sleep(cfg.linger)
			_ = srv.Close()
		}
	}
	switch cfg.fig {
	case "17":
		fig17(r, cfg.ps, cfg.maxN)
	case "18":
		fig18(r, cfg.ps, cfg.maxN)
	case "19":
		fig19(r, cfg.ps)
	case "20":
		fig20(r, cfg.ps)
	}
	if stopFabric != nil {
		stopFabric()
	}
	if ctx.Err() != nil {
		msg := "ber: interrupted; completed points were flushed"
		if r.ledger.Store != nil {
			msg += "; partial progress checkpointed (rerun with -resume)"
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(exitInterrupted)
	}
}

// cliConfig is the parsed and validated command line.
type cliConfig struct {
	fig           string
	shots         int
	seed          int64
	ps            []float64
	maxN          int
	workers       int
	shard         int
	targetErrors  int
	maxCI         float64
	decTimeout    time.Duration
	fallback      []experiment.DecoderKind
	checkpointDir string
	resume        bool
	serveAddr     string
	joinURLs      []string
	workerID      string
	maxRetries    int
	leaseTTL      time.Duration
	linger        time.Duration
	standbyOf     string
	standbyProbe  time.Duration
}

// parseArgs parses and validates the ber command line. Engine knobs are
// checked eagerly with the same rules as experiment.Config validation,
// so a bad flag fails the run with one clear message instead of
// poisoning every sweep point with the same error.
func parseArgs(args []string) (*cliConfig, error) {
	fs := flag.NewFlagSet("ber", flag.ContinueOnError)
	figFlag := fs.String("fig", "19", "figure to reproduce: 17, 18, 19 or 20")
	shots := fs.Int("shots", 2000, "shots per point (upper bound when early stopping is on)")
	seed := fs.Int64("seed", 1, "base RNG seed; every point derives its own stream from it")
	psFlag := fs.String("ps", "5e-4,1e-3", "comma-separated physical error rates")
	maxN := fs.Int("maxn", 64, "largest hyperbolic blocklength simulated (figs 17/18)")
	workers := fs.Int("workers", 0, "shard workers per point (0 = GOMAXPROCS)")
	shard := fs.Int("shard", 0, fmt.Sprintf("shots per work shard (0 = the shard plan's default, %d); results are identical for any value", experiment.DefaultShardShots))
	targetErrors := fs.Int("target-errors", 0, "stop a point after this many logical errors (0 = off)")
	maxCI := fs.Float64("max-ci", 0, "stop a point when the Wilson 95% CI half-width reaches this (0 = off)")
	checkpointDir := fs.String("checkpoint", "", "directory for crash-safe sweep checkpoints (empty = off)")
	resume := fs.Bool("resume", false, "skip finished points and resume partial ones from -checkpoint")
	decTimeout := fs.Duration("decode-timeout", 0, "wall-clock budget per decode shard; a hung or crawling shard fails over to -fallback and is counted, instead of stalling the sweep (0 = off)")
	fallbackFlag := fs.String("fallback", "", "comma-separated decoder kinds that rescue panicking or timed-out shards, in order (e.g. plain-mwpm,bp-osd)")
	serveAddr := fs.String("serve", "", "run as fabric coordinator on this address (e.g. :9911); -join workers decode the points")
	joinFlag := fs.String("join", "", "run as fabric worker for the coordinator at this URL; comma-separate standby addresses to fail over across (e.g. http://host:9911,http://standby:9912)")
	workerID := fs.String("worker-id", "", "worker name in coordinator logs (-join only; default hostname-pid)")
	maxRetries := fs.Int("max-retries", 0, "worker: attempts per coordinator request before giving up with exit status 3, overriding the patience-derived budget (-join only; 0 = off)")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "shard lease lifetime before a silent worker's shard is reassigned (-serve only)")
	linger := fs.Duration("linger", 2*time.Second, "how long the coordinator keeps answering after the sweep so workers see the shutdown (-serve only)")
	standbyOf := fs.String("standby-of", "", "serve as warm standby for the coordinator at this URL: answer 503 until it goes dark, then take over the sweep from the shared ledger (requires -serve, -checkpoint and -resume)")
	standbyProbe := fs.Duration("standby-probe", 500*time.Millisecond, "standby health-probe cadence against the primary's /v1/status (-standby-of only)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *resume && *checkpointDir == "" {
		return nil, fmt.Errorf("-resume requires -checkpoint <dir>")
	}
	if *serveAddr != "" && *joinFlag != "" {
		return nil, fmt.Errorf("-serve and -join are mutually exclusive")
	}
	if *joinFlag != "" && (*checkpointDir != "" || *resume) {
		return nil, fmt.Errorf("-join is incompatible with -checkpoint/-resume: the coordinator owns the ledger")
	}
	if *joinFlag != "" && *decTimeout != 0 {
		return nil, fmt.Errorf("-join is incompatible with -decode-timeout: workers decode without a deadline")
	}
	if *serveAddr != "" && (*decTimeout != 0 || *fallbackFlag != "") {
		return nil, fmt.Errorf("-serve is incompatible with -decode-timeout/-fallback: scheduling knobs do not cross the fabric")
	}
	if *maxRetries < 0 {
		return nil, fmt.Errorf("-max-retries must be >= 0 (got %d)", *maxRetries)
	}
	if *maxRetries > 0 && *joinFlag == "" {
		return nil, fmt.Errorf("-max-retries only applies to -join worker mode")
	}
	if *standbyOf != "" {
		if *serveAddr == "" {
			return nil, fmt.Errorf("-standby-of requires -serve <addr>: the standby's own listen address")
		}
		if *checkpointDir == "" || !*resume {
			return nil, fmt.Errorf("-standby-of requires -checkpoint and -resume: a promoted standby rebuilds coordinator state from the shared ledger")
		}
	}
	if *standbyProbe <= 0 {
		return nil, fmt.Errorf("-standby-probe must be positive (got %v)", *standbyProbe)
	}
	if *leaseTTL <= 0 {
		return nil, fmt.Errorf("-lease-ttl must be positive (got %v)", *leaseTTL)
	}
	if *linger < 0 {
		return nil, fmt.Errorf("-linger must be >= 0 (got %v)", *linger)
	}
	switch *figFlag {
	case "17", "18", "19", "20":
	default:
		return nil, fmt.Errorf("unknown figure %q (want 17, 18, 19 or 20)", *figFlag)
	}
	if *shots <= 0 {
		return nil, fmt.Errorf("-shots must be positive (got %d)", *shots)
	}
	if *maxN <= 0 {
		return nil, fmt.Errorf("-maxn must be positive (got %d)", *maxN)
	}
	if *workers < 0 {
		return nil, fmt.Errorf("-workers must be >= 0 (got %d)", *workers)
	}
	if *shard < 0 {
		return nil, fmt.Errorf("-shard must be >= 0 (got %d)", *shard)
	}
	if *targetErrors < 0 {
		return nil, fmt.Errorf("-target-errors must be >= 0 (got %d)", *targetErrors)
	}
	if *maxCI < 0 || *maxCI >= 1 {
		return nil, fmt.Errorf("-max-ci must be in [0, 1) (got %g)", *maxCI)
	}
	if *decTimeout < 0 {
		return nil, fmt.Errorf("-decode-timeout must be >= 0 (got %v)", *decTimeout)
	}
	var fallback []experiment.DecoderKind
	if *fallbackFlag != "" {
		for _, s := range strings.Split(*fallbackFlag, ",") {
			k, err := experiment.ParseDecoderKind(strings.TrimSpace(s))
			if err != nil {
				return nil, fmt.Errorf("-fallback: %w", err)
			}
			fallback = append(fallback, k)
		}
	}
	var joinURLs []string
	if *joinFlag != "" {
		for _, s := range strings.Split(*joinFlag, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				return nil, fmt.Errorf("-join has an empty address in its list %q", *joinFlag)
			}
			joinURLs = append(joinURLs, s)
		}
	}
	var ps []float64
	for _, s := range strings.Split(*psFlag, ",") {
		p, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -ps entry %q: %v", s, err)
		}
		if p <= 0 || p >= 1 {
			return nil, fmt.Errorf("-ps entry %g is not a physical error rate in (0, 1)", p)
		}
		ps = append(ps, p)
	}
	return &cliConfig{
		fig: *figFlag, shots: *shots, seed: *seed, ps: ps, maxN: *maxN,
		workers: *workers, shard: *shard, targetErrors: *targetErrors, maxCI: *maxCI,
		decTimeout: *decTimeout, fallback: fallback,
		checkpointDir: *checkpointDir, resume: *resume,
		serveAddr: *serveAddr, joinURLs: joinURLs, workerID: *workerID,
		maxRetries: *maxRetries, leaseTTL: *leaseTTL, linger: *linger,
		standbyOf: *standbyOf, standbyProbe: *standbyProbe,
	}, nil
}

// standbyWait probes the primary coordinator's /v1/status every probe
// interval and returns true once standbyFailThreshold consecutive
// probes fail — the takeover signal. It returns false when ctx is
// cancelled first. Probe pacing is pure liveness: whoever ends up
// coordinating, the merged counts are the same by determinism, and the
// epoch fence makes even a false-positive takeover safe.
func standbyWait(ctx context.Context, primary string, probe time.Duration) bool {
	client := &http.Client{Timeout: probe}
	t := time.NewTicker(probe)
	defer t.Stop()
	fails := 0
	for {
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, primary+"/v1/status", nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ber: bad -standby-of address:", err)
			return false
		}
		resp, err := client.Do(req)
		ok := err == nil && resp.StatusCode == http.StatusOK
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
		if ok {
			fails = 0
			continue
		}
		if fails++; fails >= standbyFailThreshold {
			return true
		}
	}
}

// schedMetaKey is the checkpoint meta entry holding the sweep's
// scheduling-knob signature.
const schedMetaKey = "sched"

// schedSignature renders the scheduling knobs as a canonical, stable
// string: the value stored in the checkpoint and compared on resume.
func schedSignature(decTimeout time.Duration, fallback []experiment.DecoderKind) string {
	names := "none"
	if len(fallback) > 0 {
		parts := make([]string, len(fallback))
		for i, k := range fallback {
			parts[i] = k.String()
		}
		names = strings.Join(parts, ",")
	}
	return fmt.Sprintf("decode-timeout=%s fallback=%s", decTimeout, names)
}

// recordSchedKnobs pins this run's scheduling-knob signature in the
// checkpoint store, warning loudly on w first if the store was written
// under different knobs — the resumed prefixes stay bit-identical, but
// the timeout/fallback shard accounting of points finished across the
// boundary may differ from a single-setting run.
func recordSchedKnobs(store *checkpoint.Store, sig string, w io.Writer) {
	if prev, ok := store.Meta(schedMetaKey); ok && prev != sig {
		fmt.Fprintf(w,
			"ber: WARNING: scheduling knobs differ from the ones this checkpoint was written with\n"+
				"ber: WARNING:   checkpoint: %s\n"+
				"ber: WARNING:   this run:   %s\n"+
				"ber: WARNING: resumed points keep their committed prefix (bit-identical by construction), but\n"+
				"ber: WARNING: timeout/fallback shard accounting may differ from a run done entirely with one setting\n",
			prev, sig)
	}
	if err := store.SetMeta(schedMetaKey, sig); err != nil {
		fmt.Fprintln(w, "ber: recording scheduling knobs in the checkpoint failed:", err)
	}
}

var fpnArch = fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}

// runner carries the sweep-wide knobs and the pipeline cache, so every
// (decoder, basis, p) point of a figure reuses the p-independent
// network/schedule/round-plan artifacts of its code.
type runner struct {
	ctx          context.Context
	sweep        *experiment.Sweep
	fig          string
	shots        int
	seed         int64
	workers      int
	shard        int
	targetErrors int
	maxCI        float64
	decTimeout   time.Duration
	fallback     []experiment.DecoderKind
	ledger       checkpoint.Ledger   // the zero value in -serve mode: the coordinator keeps the ledger
	fab          *fabric.Coordinator // non-nil in -serve mode: points run on the fabric
}

func (r *runner) point(code *css.Code, arch fpn.Options, dec experiment.DecoderKind, basis css.Basis, p float64) {
	r.pointSched(code, arch, nil, dec, basis, p)
}

func (r *runner) pointSched(code *css.Code, arch fpn.Options, sched *schedule.Schedule, dec experiment.DecoderKind, basis css.Basis, p float64) {
	if r.ctx.Err() != nil {
		return // interrupted: fall through to the exit path without starting new points
	}
	// Each point gets its own seed: reusing the base seed verbatim
	// would give every point of the sweep an identical RNG stream and
	// statistically correlated estimates. The code name joins the
	// figure tag so same-figure points on different codes decouple too.
	pointSeed := experiment.PointSeed(r.seed, "fig"+r.fig+":"+code.Name, dec, basis, p)
	cfg := experiment.Config{
		Code: code, Arch: arch, Basis: basis, P: p,
		Shots: r.shots, Seed: pointSeed, Decoder: dec, Schedule: sched,
		Workers: r.workers, ShardShots: r.shard,
		TargetErrors: r.targetErrors, MaxCI: r.maxCI,
		DecodeTimeout: r.decTimeout, Fallback: r.fallback,
	}
	run := r.sweep.RunContext
	if r.fab != nil {
		// Fabric mode: joined workers decode the point; the result (and
		// thus the printed line) is bit-identical to a local run.
		run = r.fab.RunPoint
	}
	res, err := r.ledger.RunPoint(r.ctx, cfg, run)
	if err != nil {
		fmt.Printf("%-18s %-22s %c p=%-8.1e error: %v\n", code.Name, dec, basis, p, err)
		return
	}
	for i := range res.ShardErrors {
		fmt.Fprintln(os.Stderr, "ber: "+res.ShardErrors[i].Error())
	}
	if res.Interrupted {
		fmt.Fprintf(os.Stderr, "ber: %s %s %c p=%.1e interrupted at %d/%d shots\n",
			code.Name, dec, basis, p, res.Shots, r.shots)
		return
	}
	r.print(code, dec, basis, p, res)
}

// print emits one point's result line. The format is a pure function of
// the committed (shots, errors) counts, so a point replayed from a
// checkpoint prints byte-identically to the run that computed it.
func (r *runner) print(code *css.Code, dec experiment.DecoderKind, basis css.Basis, p float64, res *experiment.Result) {
	mark := ""
	if res.EarlyStopped {
		mark = " early-stop"
	}
	if n := len(res.ShardErrors); n > 0 {
		mark += fmt.Sprintf(" shard-failures=%d", n)
	}
	if res.FallbackBlocks > 0 {
		mark += fmt.Sprintf(" fallback-blocks=%d", res.FallbackBlocks)
	}
	if res.TimeoutBlocks > 0 {
		mark += fmt.Sprintf(" timeout-blocks=%d", res.TimeoutBlocks)
	}
	if res.DegradedBlocks > 0 {
		mark += fmt.Sprintf(" degraded-blocks=%d", res.DegradedBlocks)
	}
	fmt.Printf("%-18s %-22s %c p=%-8.1e BER=%.5f BERnorm=%.5f [%0.5f,%0.5f] (%d/%d)%s\n",
		code.Name, dec, basis, p, res.BER, res.BERNorm, res.CILow, res.CIHigh,
		res.LogicalErrors, res.Shots, mark)
}

// fig17 compares hyperbolic surface codes against planar d=5, d=7.
func fig17(r *runner, ps []float64, maxN int) {
	fmt.Println("Figure 17: BER_norm of surface codes (flagged MWPM; planar uses the canonical Tomita-Svore schedule)")
	for _, d := range []int{5, 7} {
		l, err := surface.Rotated(d)
		if err != nil {
			continue
		}
		sched, _, err := schedule.CanonicalRotated(l)
		if err != nil {
			fmt.Fprintf(os.Stderr, "canonical d=%d: %v\n", d, err)
			continue
		}
		for _, basis := range []css.Basis{css.X, css.Z} {
			for _, p := range ps {
				r.pointSched(l.Code, fpn.Options{}, sched, experiment.FlaggedMWPM, basis, p)
			}
		}
	}
	for _, e := range catalog.Standard() {
		if e.Family != "surface" || e.Code.N > maxN {
			continue
		}
		for _, basis := range []css.Basis{css.X, css.Z} {
			for _, p := range ps {
				r.point(e.Code, fpnArch, experiment.FlaggedMWPM, basis, p)
			}
		}
	}
}

// fig18 compares hyperbolic color codes against the toric 6.6.6 baseline.
func fig18(r *runner, ps []float64, maxN int) {
	fmt.Println("Figure 18: BER_norm of color codes (flagged Restriction decoder)")
	var codes []*css.Code
	for _, l := range []int{2, 3} {
		c, err := color.HexagonalToric(l)
		if err != nil {
			continue
		}
		c.ComputeDistances()
		codes = append(codes, c)
	}
	for _, e := range catalog.Standard() {
		if e.Family == "color" && e.Code.N <= maxN {
			codes = append(codes, e.Code)
		}
	}
	for _, code := range codes {
		for _, basis := range []css.Basis{css.X, css.Z} {
			for _, p := range ps {
				r.point(code, fpnArch, experiment.FlaggedRestriction, basis, p)
			}
		}
	}
}

// fig19: flagged MWPM vs plain MWPM on the [[30,8,3,3]] {5,5} code.
func fig19(r *runner, ps []float64) {
	fmt.Println("Figure 19: [[30,8,3,3]] hyperbolic surface code, flagged vs plain MWPM")
	code := findCode("surface", 30)
	if code == nil {
		fmt.Fprintln(os.Stderr, "no [[30,8,3,3]] code in catalogue")
		os.Exit(1)
	}
	for _, dec := range []experiment.DecoderKind{experiment.FlaggedMWPM, experiment.PlainMWPM} {
		for _, basis := range []css.Basis{css.X, css.Z} {
			for _, p := range ps {
				r.point(code, fpnArch, dec, basis, p)
			}
		}
	}
}

// fig20: flagged vs Chamberland-style Restriction on a small {4,6}
// hyperbolic color code.
func fig20(r *runner, ps []float64) {
	fmt.Println("Figure 20: {4,6} hyperbolic color code, flagged vs Chamberland-style Restriction")
	code := findCode("color", 48)
	if code == nil {
		fmt.Fprintln(os.Stderr, "no small {4,6} color code in catalogue")
		os.Exit(1)
	}
	for _, dec := range []experiment.DecoderKind{experiment.FlaggedRestriction, experiment.BaselineRestriction} {
		for _, basis := range []css.Basis{css.X, css.Z} {
			for _, p := range ps {
				r.point(code, fpnArch, dec, basis, p)
			}
		}
	}
}

func findCode(family string, n int) *css.Code {
	for _, e := range catalog.Standard() {
		if e.Family == family && e.Code.N == n {
			return e.Code
		}
	}
	return nil
}
