package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; the smoke test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of ber, ber -serve/-join or decoded
// sees, reported by untraced runs on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics. The first group are end-to-end
// numbers whose run-to-run spread on a shared machine is too wide to
// gate (README.md, calibration); the rest belong to one layer each.
var perLayer = []metricDef{
	{"shots_per_s", "shots/s", "higher"},
	{"fabric_shots_per_s", "shots/s", "higher"},
	{"fabric_vs_local", "ratio", "higher"},
	{"win_p50_ms", "ms", "lower"},
	{"win_p99_ms", "ms", "lower"},
	{"win_p99_ms_high", "ms", "lower"},
	{"shed_ratio_high", "ratio", "lower"},
	{"windows_per_s", "windows/s", "higher"},
	{"gen_lag_p99_ms", "ms", "lower"},
	{"catalog.build_s", "s", "lower"},
	{"experiment.pipeline_s", "s", "lower"},
	{"experiment.tail_s", "s", "lower"},
	{"dem.extract_s", "s", "lower"},
	{"sim.ns_per_shot", "ns", "lower"},
	{"sim.busy_share", "ratio", "lower"},
	{"decoder.ns_per_shot", "ns", "lower"},
	{"decoder.memo_hit_ratio", "ratio", "higher"},
	{"decoder.window_us_p50", "us", "lower"},
	{"decoder.window_us_p99", "us", "lower"},
	{"experiment.commits", "count", "lower"},
	{"experiment.overhead_share", "ratio", "lower"},
	{"checkpoint.puts", "count", "lower"},
	{"checkpoint.put_ms_p50", "ms", "lower"},
	{"checkpoint.bytes_written", "bytes", "lower"},
	{"checkpoint.busy_share", "ratio", "lower"},
	{"fabric.requests_per_shard", "count", "lower"},
	{"fabric.lease_rtt_us_p50", "us", "lower"},
	{"fabric.complete_rtt_us_p50", "us", "lower"},
	{"fabric.bytes_per_shard", "bytes", "lower"},
	{"fabric.wire_share", "ratio", "lower"},
	{"fabric.retries", "count", "lower"},
	{"fabric.lease_reassigns", "count", "lower"},
	{"rtd.encode_us_per_window", "us", "lower"},
	{"rtd.nondecode_us_mean", "us", "lower"},
	{"rtd.statz_p99_over_exact", "ratio", "lower"},
	{"rtd.shed_rounds", "count", "lower"},
	{"rtd.win_p999_ms", "ms", "lower"},
	{"rtd.gen_lag_p99_ms_high", "ms", "lower"},
	{"rtd.conn_panics", "count", "lower"},
	{"trace.overhead", "ratio", "higher"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metric values by name and prints them with their
// units, in table order, once every one is set.
type report struct {
	defs   []metricDef
	values map[string]float64
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, values: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// finish checks that every metric was measured and is finite, prints
// them to w, and returns them for the result line.
func (r *report) finish(w io.Writer) (map[string]metric, error) {
	out := map[string]metric{}
	for _, d := range r.defs {
		v, ok := r.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, v, d.unit)
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
