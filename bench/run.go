package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/fpn/flagproxy/internal/checkpoint"
)

// runOptions are one workload run's settings.
type runOptions struct {
	seed    int64
	seconds float64
	traced  bool
	spans   string
}

// counts is the run's failure accounting: operations attempted and
// failed across every leg.
type counts struct{ attempted, failed int64 }

func (c *counts) add(attempted, failed int64) {
	c.attempted += attempted
	c.failed += failed
}

// gates collects correctness failures; a run with any is not correct.
type gates struct {
	w      io.Writer
	failed bool
}

func (g *gates) check(name string, err error) {
	if err != nil {
		g.failed = true
		fmt.Fprintf(g.w, "gate %s: FAIL: %v\n", name, err)
		return
	}
	fmt.Fprintf(g.w, "gate %s: ok\n", name)
}

// runWorkload runs every leg of w — set-up, the local engine, the
// fabric, the rtd service — checks the outputs, and returns
// the result line: the end-to-end metrics, or the per-layer ones when
// traced. Human-readable lines go to out first.
func runWorkload(ctx context.Context, w *workload, opt runOptions, out io.Writer) (*result, error) {
	sz := sizesFor(w, opt.seconds)
	if !opt.traced {
		sz.high = 0 // phase high only feeds per-layer metrics
	}
	fmt.Fprintf(out, "workload %s seed=%d seconds=%g traced=%v: point %d shots, windows low=%d high=%d closed=%d\n",
		w.name, opt.seed, opt.seconds, opt.traced, sz.sweepShots, sz.low, sz.high, sz.closed)
	s, su, err := setups(w, opt.seed, sz, time.Duration(setupShare*opt.seconds*float64(time.Second)))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	fmt.Fprintf(out, "set-up: %d builds, median %.4g s wall, %.4g s CPU; %d reference passes, median %.4g s CPU\n",
		len(su.builds), su.wall(), median(su.cpu), len(su.refs), median(su.refs))
	in, err := buildServeInputs(s, sz)
	if err != nil {
		return nil, fmt.Errorf("serve inputs: %w", err)
	}
	var tr *tracer
	var fs *meteredFS
	var ledgerFS checkpoint.FS // nil: the real filesystem, unmetered
	if opt.traced {
		tr, fs = newTracer(), newMeteredFS()
		ledgerFS = fs
	}
	g := &gates{w: out}
	var acct counts

	// Sweep legs: the local engine, the traced replica when tracing, then
	// the fabric on the same point.
	runtime.GC()
	local, ledgerFails, err := localLeg(ctx, s, w, nil)
	if err != nil {
		return nil, fmt.Errorf("local leg: %w", err)
	}
	acct.add(int64((local.blocks+shardBlocks-1)/shardBlocks), int64(local.shardErrors)+ledgerFails)
	g.check("local-complete", complete(local, s.sweepCfg.Shots))
	var rep replicaOut
	if opt.traced {
		runtime.GC()
		if rep, err = tracedReplica(s, w, ledgerFS, tr); err != nil {
			return nil, fmt.Errorf("traced replica: %w", err)
		}
		acct.add(0, rep.ledgerFails)
		g.check("replica-equals-engine", same(local.sig, rep.sig))
	}
	runtime.GC()
	meter := newWireMeter(tr)
	defer meter.next.CloseIdleConnections()
	fab, err := fabricLeg(ctx, s.sweepCfg, ledgerFS, meter)
	if err != nil {
		return nil, fmt.Errorf("fabric leg: %w", err)
	}
	acct.add(meter.requests.Load(), meter.failures.Load()+int64(fab.shardErrors)+fab.abnormal)
	if fab.workerErr != nil {
		acct.add(0, 1)
	}
	g.check("fabric-equals-local", same(local.sig, fab.sig))
	fmt.Fprintf(out, "local: %d shots in %.3f s, sustained %.4g shots/s; fabric: %.3f s, sustained %.4g shots/s\n",
		local.shots, local.wall.Seconds(), local.sustained, fab.wall.Seconds(), fab.sustained)

	// Serve legs.
	runtime.GC()
	sv, err := startServer(s, opt.traced)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	low := sv.openLoop(ctx, in.low, lowRate, "low", tr)
	nLowDecodes := sv.decodeCount()
	var high phaseOut
	if opt.traced {
		high = sv.openLoop(ctx, in.high, w.highRate, "high", tr)
	}
	closed := sv.closedLoop(ctx, in.closed)
	sv.stop()
	stats := sv.rtd.Stats()
	panics := sv.panics.n.Load()
	served := append([]stream{in.low}, in.closed...)
	results := append(low.results, closed.results...)
	if opt.traced {
		served = append(served, in.high)
		results = append(results, high.results...)
	}
	for _, p := range []phaseOut{low, high, closed} {
		acct.add(int64(p.sent), int64(p.failed))
	}
	checked, err := recountGate(ctx, s, served, results)
	if err == nil && checked == 0 {
		err = fmt.Errorf("no served block committed every window")
	}
	g.check("serve-equals-offline", err)
	fmt.Fprintf(out, "serve: %d blocks recounted; low %d/%d, high %d/%d, closed %d/%d windows committed; %d stream errors; %d conn panics\n",
		checked, low.committed(), low.sent, high.committed(), high.sent, closed.committed(), closed.sent,
		low.streamEr+high.streamEr+closed.streamEr, panics)
	tailLine(out, "win (low)", low.wall, low.latMs)
	if opt.traced {
		tailLine(out, "win (high)", high.wall, high.latMs)
	}
	windowsPerSec := closed.answered.sustained(float64(closed.committed()) / closed.wall.Seconds())
	fmt.Fprintf(out, "closed: %d windows in %.3f s, sustained %.4g windows/s\n", closed.sent, closed.wall.Seconds(), windowsPerSec)

	res := &result{Correct: !g.failed, Attempted: acct.attempted, Failed: acct.failed}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	if !opt.traced {
		r := newReport(endToEnd)
		r.set("setup_s", su.seconds())
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		r.set("peak_rss_mb", rss)
		if res.Metrics, err = r.finish(out); err != nil {
			return nil, err
		}
		return res, nil
	}

	r := newReport(perLayer)
	// End-to-end numbers too noisy on a shared machine to gate (see
	// README.md, calibration), kept here for -compare and for claims.
	// Latencies are over committed windows: a number must be finite, and
	// the shed ones are counted in failed, shed_ratio_high and
	// rtd.shed_rounds (the printed win lines show them as +Inf).
	lowOK := committed(low.latMs)
	lowSorted := sortedCopy(lowOK)
	r.set("shots_per_s", local.sustained)
	r.set("fabric_shots_per_s", fab.sustained)
	r.set("fabric_vs_local", fab.sustained/local.sustained)
	r.set("win_p50_ms", rank(lowSorted, 0.50))
	r.set("win_p99_ms", rank(lowSorted, 0.99))
	r.set("win_p99_ms_high", rank(sortedCopy(committed(high.latMs)), 0.99))
	r.set("shed_ratio_high", float64(high.failed)/float64(high.sent))
	r.set("windows_per_s", windowsPerSec)
	r.set("gen_lag_p99_ms", rank(sortedCopy(low.lagMs), 0.99))

	r.set("catalog.build_s", medianOf(su.builds, func(st stageTimes) time.Duration { return st.catalog }))
	r.set("experiment.pipeline_s", medianOf(su.builds, func(st stageTimes) time.Duration { return st.pipeline }))
	r.set("experiment.tail_s", medianOf(su.builds, func(st stageTimes) time.Duration { return st.tail }))
	dx, err := demExtract(s)
	if err != nil {
		return nil, err
	}
	r.set("dem.extract_s", dx.Seconds())

	self, dur := tr.selfTimes(), tr.durations()
	shots := float64(rep.shots)
	simBusy, decBusy := self["sim.run"], self["decoder.decode_block"]
	r.set("sim.ns_per_shot", float64(simBusy.Nanoseconds())/shots)
	r.set("sim.busy_share", simBusy.Seconds()/dur["experiment.shard"].Seconds())
	r.set("decoder.ns_per_shot", float64(decBusy.Nanoseconds())/shots)
	r.set("decoder.memo_hit_ratio", ratio(float64(rep.memoHits), float64(rep.memoHits+rep.memoMisses)))
	r.set("experiment.commits", float64(rep.commits))
	r.set("experiment.overhead_share", 1-(simBusy+decBusy).Seconds()/(workers*rep.wall.Seconds()))
	r.set("trace.overhead", rep.shotsPerSec()/local.sustained)

	decodes := sortedCopy(sv.decodes)
	r.set("decoder.window_us_p50", rank(decodes, 0.50))
	r.set("decoder.window_us_p99", rank(decodes, 0.99))

	r.set("checkpoint.puts", float64(len(fs.flushes)))
	r.set("checkpoint.put_ms_p50", median(fs.flushes))
	r.set("checkpoint.bytes_written", float64(fs.written))
	ledgerWall := fab.wall
	if w.ledger {
		ledgerWall += rep.wall
	}
	r.set("checkpoint.busy_share", fs.busy.Seconds()/ledgerWall.Seconds())

	fabShards := float64((fab.blocks + shardBlocks - 1) / shardBlocks)
	r.set("fabric.requests_per_shard", float64(meter.requests.Load())/fabShards)
	r.set("fabric.lease_rtt_us_p50", meter.rttP50("lease"))
	r.set("fabric.complete_rtt_us_p50", meter.rttP50("complete"))
	r.set("fabric.bytes_per_shard", float64(meter.bytes.Load())/fabShards)
	r.set("fabric.wire_share", float64(meter.busyNs.Load())/1e9/(workers*fab.wall.Seconds()))
	r.set("fabric.retries", float64(meter.failures.Load()))
	r.set("fabric.lease_reassigns", float64(fab.reassigns))

	r.set("rtd.encode_us_per_window", in.encodeUs)
	r.set("rtd.nondecode_us_mean", 1e3*(mean(lowOK)-mean(low.lagMs))-mean(sv.decodes[:nLowDecodes]))
	r.set("rtd.statz_p99_over_exact", float64(stats.P99Ns)/1e3/rank(decodes, 0.99))
	r.set("rtd.shed_rounds", float64(stats.ShedRounds))
	r.set("rtd.win_p999_ms", rank(lowSorted, 0.999))
	r.set("rtd.gen_lag_p99_ms_high", rank(sortedCopy(high.lagMs), 0.99))
	r.set("rtd.conn_panics", float64(panics))

	layers := layerSelf(self)
	for _, l := range []string{"experiment", "sim", "decoder", "checkpoint", "fabric", "rtd"} {
		fmt.Fprintf(out, "self time %-10s %10.3f s\n", l, layers[l].Seconds())
	}
	if err := tr.write(opt.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s\n", opt.spans)
	if res.Metrics, err = r.finish(out); err != nil {
		return nil, err
	}
	return res, nil
}

// complete checks the local leg committed its whole point.
func complete(o sweepOut, shots int) error {
	if o.shots != shots || o.shardErrors != 0 {
		return fmt.Errorf("committed %d of %d shots with %d shard errors", o.shots, shots, o.shardErrors)
	}
	return nil
}

// same requires two legs' signatures to match byte for byte.
func same(want, got string) error {
	if want != got {
		return fmt.Errorf("\n  want %s\n  got  %s", want, got)
	}
	return nil
}

func medianOf(stages []stageTimes, f func(stageTimes) time.Duration) float64 {
	xs := make([]float64, len(stages))
	for i, st := range stages {
		xs[i] = f(st).Seconds()
	}
	return median(xs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tailLine prints a latency distribution's median, p99 and the highest
// percentile with at least ten samples beyond it, with the sample count.
func tailLine(w io.Writer, what string, wall time.Duration, lat []float64) {
	s := sortedCopy(lat)
	q := tailQuantile(len(s))
	fmt.Fprintf(w, "%s: %.3f s, n=%d p50=%.4g ms p99=%.4g ms p%.4g=%.4g ms\n",
		what, wall.Seconds(), len(s), rank(s, 0.5), rank(s, 0.99), 100*q, rank(s, q))
}
