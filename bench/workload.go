package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/fpn/flagproxy/internal/catalog"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/experiment"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/schedule"
	"github.com/fpn/flagproxy/internal/surface"
)

// fpnArch is the flag-proxy architecture ber -fig 19 sweeps and decoded
// serves with.
var fpnArch = fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}

// workers is the load every leg applies: two engine workers, two fabric
// workers, two decode workers, two closed-loop streams. It matches the
// two-core machine the sizes below were calibrated on.
const workers = 2

// Serve-leg traffic: the open-loop rate of phase low and the
// closed-loop window depth per stream.
const (
	lowRate  = 2000 // windows/s
	inFlight = 16   // windows in flight per closed-loop stream
)

// workload is one (code, noise point) that every leg runs: the local
// engine and the fabric sweep it as ber does, and the rtd service serves
// its windows as decoded does.
type workload struct {
	name string
	why  string
	p    float64
	// code builds the code and, for planar codes, the canonical schedule
	// ber -fig 17 sweeps with. A nil schedule means ber -fig 19's greedy
	// schedule over fpnArch.
	code func() (*css.Code, *schedule.Schedule, error)
	// ledger makes the local leg write its checkpoint ledger every 256
	// blocks, as ber -checkpoint does.
	ledger bool
	// sweepShots is the point size per second of --seconds. It is set
	// so the local and fabric legs together take about half the run on
	// a two-core machine.
	sweepShots float64
	// highRate is phase high's open-loop rate in windows/s: well under
	// the closed-loop capacity, so the phase loads the service without
	// shedding.
	highRate float64
	// closedWindows is the closed-loop window count per second of
	// --seconds, set so the phase takes about a tenth of the run.
	closedWindows float64
}

var workloads = []*workload{
	{
		name: "planar-d3", p: 1e-3, code: rotated(3), sweepShots: 600e3, highRate: 6000, closedWindows: 5000,
		why: "rotated d=3, p=1e-3, as ber -fig 17: sampling-bound (memo hits ~99%), so sim and the fabric's per-shard wire cost show most",
	},
	{
		name: "planar-d7", p: 1e-3, code: rotated(7), sweepShots: 110e3, highRate: 3000, closedWindows: 900,
		why: "rotated d=7, p=1e-3, as ber -fig 17: matcher-bound (memo hits ~14%), with a ~1 s decoder build in set-up",
	},
	{
		name: "hyper-30-8-3-3", p: 1e-3, code: hyper30, ledger: true, sweepShots: 45e3, highRate: 6000, closedWindows: 4500,
		why: "the paper's [[30,8,3,3]] FPN, p=1e-3, as ber -fig 19: flag-conditioned decode, ~1 s code construction, ledger beside compute",
	},
	{
		name: "planar-d5-p5e-3", p: 5e-3, code: rotated(5), sweepShots: 83e3, highRate: 3000, closedWindows: 1500,
		why: "rotated d=5 at p=5e-3, decoded's default noise: dense syndromes, few memo hits, heavier windows online",
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func rotated(d int) func() (*css.Code, *schedule.Schedule, error) {
	return func() (*css.Code, *schedule.Schedule, error) {
		l, err := surface.Rotated(d)
		if err != nil {
			return nil, nil, err
		}
		s, _, err := schedule.CanonicalRotated(l)
		if err != nil {
			return nil, nil, err
		}
		return l.Code, s, nil
	}
}

// hyper30 builds the [[30,8,3,3]] {5,5} code the way catalog.Standard
// (and so ber -fig 19) does, without its process-wide cache, so every
// set-up pays the construction.
func hyper30() (*css.Code, *schedule.Schedule, error) {
	for _, e := range catalog.SurfaceCodes(5, 5, catalog.DefaultOptions()) {
		if e.Code.N == 30 {
			return e.Code, nil, nil
		}
	}
	return nil, nil, fmt.Errorf("no [[30,8,3,3]] code in the {5,5} catalogue")
}

// sizes are one run's input sizes, a pure function of the workload and
// --seconds.
type sizes struct {
	sweepShots int // shots of the swept point (local and fabric legs)
	low, high  int // open-loop windows per phase
	closed     int // closed-loop windows, split over the streams
}

func sizesFor(w *workload, s float64) sizes {
	blocks := func(x float64, multiple int) int {
		n := int(math.Round(x/float64(multiple))) * multiple
		if n < multiple {
			n = multiple
		}
		return n
	}
	return sizes{
		sweepShots: blocks(w.sweepShots*s, 1024),
		low:        blocks(lowRate*0.2*s, 64),
		high:       blocks(w.highRate*0.15*s, 64),
		closed:     blocks(w.closedWindows*s, 64*workers),
	}
}

// setup is everything the legs share, built before any timing.
type setup struct {
	code     *css.Code
	sweepPl  *experiment.Pipeline
	sweepCfg experiment.Config // the point exactly as ber builds it
	serveCfg experiment.Config // the stack exactly as decoded builds it
	online   *experiment.Online
	recount  *experiment.BlockRunner // offline decode of every served window
	replica  *experiment.Online      // the sweep stack, for the traced replica
}

// stageTimes splits one set-up by layer.
type stageTimes struct {
	catalog, pipeline, tail time.Duration
}

func (st stageTimes) total() time.Duration { return st.catalog + st.pipeline + st.tail }

// newSetup builds the code, the sweep and serve pipelines and their
// decode stacks. seed is the workload seed; sz fixes the point size and
// the served window count.
func newSetup(w *workload, seed int64, sz sizes) (*setup, stageTimes, error) {
	var st stageTimes
	t0 := time.Now()
	code, sched, err := w.code()
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	st.catalog = t1.Sub(t0)
	// ber -fig 17 passes fpn.Options{} alongside the canonical schedule;
	// ber -fig 19 passes fpnArch and lets the greedy scheduler run.
	arch := fpnArch
	var sweepPl *experiment.Pipeline
	if sched != nil {
		arch = fpn.Options{}
		sweepPl, err = experiment.NewPipelineFromSchedule(code, sched)
	} else {
		sweepPl, err = experiment.NewPipeline(code, fpnArch)
	}
	if err != nil {
		return nil, st, err
	}
	// decoded always serves the flag-proxy network of its code.
	servePl := sweepPl
	if sched != nil {
		if servePl, err = experiment.NewPipeline(code, fpnArch); err != nil {
			return nil, st, err
		}
	}
	t2 := time.Now()
	st.pipeline = t2.Sub(t1)
	s := &setup{code: code, sweepPl: sweepPl}
	s.sweepCfg = experiment.Config{
		Code: code, Arch: arch, Basis: css.Z, P: w.p, Shots: sz.sweepShots,
		Seed:    experiment.PointSeed(seed, "bench:"+w.name, experiment.FlaggedMWPM, css.Z, w.p),
		Decoder: experiment.FlaggedMWPM, Schedule: sched, Workers: workers,
	}
	s.serveCfg = experiment.Config{
		Code: code, Arch: fpnArch, Basis: css.Z, P: w.p,
		Seed:    experiment.PointSeed(seed, "bench:"+w.name+":serve", experiment.FlaggedMWPM, css.Z, w.p),
		Decoder: experiment.FlaggedMWPM,
	}
	if s.online, err = servePl.NewOnline(s.serveCfg); err != nil {
		return nil, st, err
	}
	rc := s.serveCfg
	rc.Shots = sz.low + sz.high + sz.closed
	if s.recount, err = servePl.NewBlockRunner(rc); err != nil {
		return nil, st, err
	}
	if s.replica, err = sweepPl.NewOnline(s.sweepCfg); err != nil {
		return nil, st, err
	}
	st.tail = time.Since(t2)
	return s, st, nil
}

// setupShare is the share of --seconds spent building set-ups. At
// --seconds 10 that is three or four of planar-d7's or hyper-30's
// 1–1.8 s builds, and over a hundred of planar-d3's; a very short run
// builds once. Builds of one set-up vary by ±10% within a run, so the
// median needs several.
const setupShare = 0.5

// setupRun is the set-up phase of one run: every build's stage times
// and CPU time, and the CPU time of the reference passes between them.
type setupRun struct {
	builds []stageTimes
	cpu    []float64 // CPU seconds per build
	refs   []float64 // CPU seconds per reference pass
}

// wall is the median build's wall time in seconds.
func (r setupRun) wall() float64 {
	xs := make([]float64, len(r.builds))
	for i, st := range r.builds {
		xs[i] = st.total().Seconds()
	}
	return median(xs)
}

// seconds is setup_s: the median build's CPU time, scaled to the machine
// speed at which the median reference pass takes refNominal.
func (r setupRun) seconds() float64 {
	return median(r.cpu) * refNominal.Seconds() / median(r.refs)
}

// setups builds the set-up until the builds add up to floor of wall
// time, at least once, keeping the last one: set-up time is reported as
// the median of several builds rather than one noisy sample. Reference
// passes run between the builds, a refShare of their time, so the
// machine's speed is measured over the same seconds. Each build and pass
// starts from a collected heap that no longer holds the previous build,
// as a freshly started ber or decoded does; two builds alive at once
// would also set peak_rss_mb.
func setups(w *workload, seed int64, sz sizes, floor time.Duration) (*setup, setupRun, error) {
	var s *setup
	var r setupRun
	var built, timed time.Duration
	for len(r.builds) == 0 || built < floor {
		s = nil
		for len(r.refs) == 0 || timed < time.Duration(refShare*float64(built)) {
			runtime.GC()
			d := cpuTime(reference)
			r.refs = append(r.refs, d.Seconds())
			timed += d
		}
		runtime.GC()
		var st stageTimes
		var err error
		cpu := cpuTime(func() { s, st, err = newSetup(w, seed, sz) })
		if err != nil {
			return nil, r, err
		}
		r.builds = append(r.builds, st)
		r.cpu = append(r.cpu, cpu.Seconds())
		built += st.total()
	}
	return s, r, nil
}

// demExtract times dem.Extract on the sweep circuit on its own: the
// public call inside every tail build.
func demExtract(s *setup) (time.Duration, error) {
	t0 := time.Now()
	_, err := dem.Extract(s.replica.Circuit())
	return time.Since(t0), err
}
