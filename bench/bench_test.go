package main

import (
	"bytes"
	"context"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// smokeSeconds is short enough that every workload builds its set-up
// once and gets the smallest inputs sizesFor makes.
const smokeSeconds = "0.015"

// Every workload runs end to end at its smallest size, passes its
// correctness gates, and emits exactly the metrics BENCHMARK.json lists:
// the end-to-end ones untraced, the per-layer ones traced.
func TestWorkloadsSmoke(t *testing.T) {
	if err := checkSpec(filepath.Join("..", "BENCHMARK.json")); err != nil {
		t.Fatal(err)
	}
	want := map[int]map[string]string{0: {}, 1: {}}
	for i, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			want[i][d.name] = d.unit
		}
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			var out, errOut bytes.Buffer
			args := []string{"-workload", w.name, "-seed", "3", "-seconds", smokeSeconds,
				"-trace", strconv.Itoa(trace), "-spans", filepath.Join(t.TempDir(), "spans.json")}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\nstdout:\n%s\nstderr:\n%s", w.name, trace, code, out.String(), errOut.String())
			}
			res, err := lastResult(out.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !sameMetrics(got, want[trace]) {
				t.Fatalf("%s trace=%d: metrics %v, BENCHMARK.json lists %v", w.name, trace, keys(got), keys(want[trace]))
			}
		}
	}
}

// A fabric leg whose config omits the canonical schedule (so the
// workers rebuild a greedy one) publishes another point than the local
// leg ran, and must fail the fabric gate; the same leg with the schedule
// carried must pass it.
func TestFabricGateCatchesMissingSchedule(t *testing.T) {
	w, err := workloadByName("planar-d3")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := newSetup(w, 5, sizesFor(w, 0.015))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	local, _, err := localLeg(ctx, s, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := fabricLeg(ctx, s.sweepCfg, nil, newWireMeter(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := same(local.sig, fab.sig); err != nil {
		t.Fatalf("fabric gate failed the point as ber builds it: %v", err)
	}
	cfg := s.sweepCfg
	cfg.Schedule = nil
	if fab, err = fabricLeg(ctx, cfg, nil, newWireMeter(nil)); err != nil {
		t.Fatal(err)
	}
	if fab.published == s.sweepCfg.Fingerprint() {
		t.Fatalf("the coordinator published the local point %s without its schedule", fab.published)
	}
	if err := same(local.sig, fab.sig); err == nil {
		t.Fatal("fabric gate passed a point run without the canonical schedule")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), the
// spread definition outside checks use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func sameMetrics(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func keys(m map[string]string) string {
	var ks []string
	for k, v := range m {
		ks = append(ks, k+"["+v+"]")
	}
	sort.Strings(ks)
	return strings.Join(ks, " ")
}
