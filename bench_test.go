// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablation benches for the design choices called out in
// DESIGN.md. Each benchmark regenerates its experiment at laptop scale
// and reports the headline quantities as custom metrics (go test
// -bench=. -benchmem). The cmd/ binaries print the full rows/series.
package flagproxy

import (
	"testing"

	"github.com/fpn/flagproxy/internal/catalog"
	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/decoder"
	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/experiment"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/noise"
	"github.com/fpn/flagproxy/internal/schedule"
	"github.com/fpn/flagproxy/internal/surface"
)

var fpnArch = fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}

func catalogCode(b *testing.B, family string, n int) *css.Code {
	b.Helper()
	for _, e := range catalog.Standard() {
		if e.Family == family && e.Code.N == n {
			return e.Code
		}
	}
	b.Fatalf("no %s code with n=%d in catalogue", family, n)
	return nil
}

func berPoint(b *testing.B, code *css.Code, arch fpn.Options, dec experiment.DecoderKind, basis css.Basis, p float64, shots int) float64 {
	b.Helper()
	res, err := experiment.Run(experiment.Config{
		Code: code, Arch: arch, Basis: basis, P: p,
		Shots: shots, Seed: 1, Decoder: dec,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.BER
}

// BenchmarkFig08aQubitComposition regenerates Figure 8(a): the mean
// qubit-type composition of shared-flag FPNs across subfamilies. The
// reported metric is the flag fraction of the {5,5} subfamily.
func BenchmarkFig08aQubitComposition(b *testing.B) {
	entries := catalog.Standard()
	var flagFrac float64
	for i := 0; i < b.N; i++ {
		es := catalog.BySubfamily(entries, "surface", [2]int{5, 5})
		flagFrac = 0
		for _, e := range es {
			net, err := fpn.Build(e.Code, fpnArch)
			if err != nil {
				b.Fatal(err)
			}
			flagFrac += float64(net.CountByType()[fpn.Flag]) / float64(net.NumQubits())
		}
		flagFrac /= float64(len(es))
	}
	b.ReportMetric(flagFrac, "flag-fraction-55")
}

// BenchmarkFig12EffectiveRate regenerates Figure 12: effective rates
// with and without flag sharing. Metrics: mean sharing gain and the
// [[30,8,3,3]] shared-flag Reff (paper ≈ 0.094 for the subfamily).
func BenchmarkFig12EffectiveRate(b *testing.B) {
	entries := catalog.Standard()
	var gain, reff30 float64
	for i := 0; i < b.N; i++ {
		gain = 0
		count := 0
		for _, e := range entries {
			plain, err1 := fpn.Build(e.Code, fpn.Options{UseFlags: true, MaxDegree: 4})
			shared, err2 := fpn.Build(e.Code, fpnArch)
			if err1 != nil || err2 != nil {
				b.Fatal(err1, err2)
			}
			gain += shared.EffectiveRate() / plain.EffectiveRate()
			count++
			if e.Code.N == 30 && e.Family == "surface" {
				reff30 = shared.EffectiveRate()
			}
		}
		gain /= float64(count)
	}
	b.ReportMetric(gain, "mean-sharing-gain")
	b.ReportMetric(reff30, "Reff-30-8-3-3")
}

// BenchmarkTable1MeanDegree regenerates Table I. Metrics: the highest
// mean degree among surface subfamilies and the planar d=5 mean degree
// (paper: 3.12 and 3.26).
func BenchmarkTable1MeanDegree(b *testing.B) {
	entries := catalog.Standard()
	var surfaceMax, planar5 float64
	for i := 0; i < b.N; i++ {
		surfaceMax = 0
		for _, e := range entries {
			if e.Family != "surface" {
				continue
			}
			net, err := fpn.Build(e.Code, fpnArch)
			if err != nil {
				b.Fatal(err)
			}
			if net.MeanDegree() > surfaceMax {
				surfaceMax = net.MeanDegree()
			}
		}
		l, err := surface.Rotated(5)
		if err != nil {
			b.Fatal(err)
		}
		net, err := fpn.Build(l.Code, fpn.Options{})
		if err != nil {
			b.Fatal(err)
		}
		planar5 = net.MeanDegree()
	}
	b.ReportMetric(surfaceMax, "surface-max-mean-degree")
	b.ReportMetric(planar5, "planar-d5-mean-degree")
}

// BenchmarkFig14ScheduleLatency regenerates Figure 14 for the
// [[30,8,3,3]] code on a direct architecture: greedy latency between the
// theoretical shortest (1090 ns) and longest (1290 ns).
func BenchmarkFig14ScheduleLatency(b *testing.B) {
	code := catalogCode(b, "surface", 30)
	var latency float64
	for i := 0; i < b.N; i++ {
		net, err := fpn.Build(code, fpn.Options{})
		if err != nil {
			b.Fatal(err)
		}
		s, err := schedule.Greedy(net)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := schedule.BuildRoundPlan(s)
		if err != nil {
			b.Fatal(err)
		}
		latency = plan.LatencyNs
	}
	b.ReportMetric(latency, "greedy-ns")
	b.ReportMetric(schedule.TheoreticalShortestNs(5), "shortest-ns")
	b.ReportMetric(schedule.TheoreticalLongestNs(5, 5), "longest-ns")
}

// BenchmarkFig17SurfaceBER regenerates one Figure 17 point per family:
// BER_norm of the [[30,8,3,3]] hyperbolic code and of the planar d=5
// code at p = 1e-3 (memory Z, flagged MWPM).
func BenchmarkFig17SurfaceBER(b *testing.B) {
	hyper := catalogCode(b, "surface", 30)
	l, err := surface.Rotated(5)
	if err != nil {
		b.Fatal(err)
	}
	var hyperBER, planarBER float64
	for i := 0; i < b.N; i++ {
		hyperBER = berPoint(b, hyper, fpnArch, experiment.FlaggedMWPM, css.Z, 1e-3, 400)
		planarBER = berPoint(b, l.Code, fpn.Options{}, experiment.FlaggedMWPM, css.Z, 1e-3, 400)
	}
	b.ReportMetric(hyperBER/float64(hyper.K), "hyper-BERnorm")
	b.ReportMetric(planarBER, "planar-d5-BER")
}

// BenchmarkFig18ColorBER regenerates one Figure 18 point: BER_norm of
// the {4,6} hyperbolic color code under the flagged Restriction decoder.
func BenchmarkFig18ColorBER(b *testing.B) {
	code := catalogCode(b, "color", 48)
	var ber float64
	for i := 0; i < b.N; i++ {
		ber = berPoint(b, code, fpnArch, experiment.FlaggedRestriction, css.Z, 5e-4, 300)
	}
	b.ReportMetric(ber/float64(code.K), "hycc46-BERnorm")
}

// BenchmarkFig19FlaggedVsPlain regenerates Figure 19: flagged vs plain
// MWPM on the [[30,8,3,3]] code at p = 1e-3.
func BenchmarkFig19FlaggedVsPlain(b *testing.B) {
	code := catalogCode(b, "surface", 30)
	var flagged, plain float64
	for i := 0; i < b.N; i++ {
		flagged = berPoint(b, code, fpnArch, experiment.FlaggedMWPM, css.Z, 1e-3, 500)
		plain = berPoint(b, code, fpnArch, experiment.PlainMWPM, css.Z, 1e-3, 500)
	}
	b.ReportMetric(flagged, "flagged-BER")
	b.ReportMetric(plain, "plain-BER")
}

// BenchmarkFig20RestrictionDecoders regenerates Figure 20: flagged vs
// Chamberland-style Restriction decoding on the {4,6} color code.
func BenchmarkFig20RestrictionDecoders(b *testing.B) {
	code := catalogCode(b, "color", 48)
	var flagged, baseline float64
	for i := 0; i < b.N; i++ {
		flagged = berPoint(b, code, fpnArch, experiment.FlaggedRestriction, css.Z, 5e-4, 300)
		baseline = berPoint(b, code, fpnArch, experiment.BaselineRestriction, css.Z, 5e-4, 300)
	}
	b.ReportMetric(flagged, "flagged-BER")
	b.ReportMetric(baseline, "chamberland-BER")
}

// BenchmarkTables45Inventory regenerates the code inventory (Tables IV
// and V). Metric: total codes catalogued.
func BenchmarkTables45Inventory(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		opt := catalog.DefaultOptions()
		entries := catalog.SurfaceCodes(5, 5, opt)
		entries = append(entries, catalog.ColorCodes(4, 8, opt)...)
		total = float64(len(entries))
	}
	b.ReportMetric(total, "codes")
}

// BenchmarkHeadlineEfficiency regenerates the headline claim: mean
// space-efficiency ratio of hyperbolic FPNs vs the d=5 planar surface
// code (paper: 2.9x surface, 5.5x color).
func BenchmarkHeadlineEfficiency(b *testing.B) {
	entries := catalog.Standard()
	var surfRatio, colorRatio float64
	for i := 0; i < b.N; i++ {
		var sums [2]float64
		var counts [2]int
		for _, e := range entries {
			net, err := fpn.Build(e.Code, fpnArch)
			if err != nil {
				b.Fatal(err)
			}
			idx := 0
			if e.Family == "color" {
				idx = 1
			}
			sums[idx] += net.EffectiveRate() * 49
			counts[idx]++
		}
		surfRatio = sums[0] / float64(counts[0])
		colorRatio = sums[1] / float64(counts[1])
	}
	b.ReportMetric(surfRatio, "surface-ratio")
	b.ReportMetric(colorRatio, "color-ratio")
}

// BenchmarkAblationProxyOrientation regenerates the Figure 7 study: the
// probability that a proxy relay corrupts the parity measurement, for
// the paper's preferred 3-CNOT orientation versus the 4-CNOT variant
// that touches the parity qubit twice.
func BenchmarkAblationProxyOrientation(b *testing.B) {
	p := 1e-3
	build := func(orientA bool) *circuit.Circuit {
		// Qubits: 0 = data a, 1 = proxy x, 2 = parity P.
		c := &circuit.Circuit{NumQubits: 3}
		c.AddOp(circuit.Op{Kind: circuit.OpReset, Qubits: []int{0, 1, 2}})
		var seq [][2]int
		if orientA {
			seq = [][2]int{{1, 2}, {0, 1}, {1, 2}, {0, 1}}
		} else {
			seq = [][2]int{{0, 1}, {1, 2}, {0, 1}}
		}
		for _, pr := range seq {
			c.AddOp(circuit.Op{Kind: circuit.OpCX, Pairs: [][2]int{pr}})
			c.AddOp(circuit.Op{Kind: circuit.OpDepol2, Pairs: [][2]int{pr}, P: p})
		}
		c.AddOp(circuit.Op{Kind: circuit.OpM, Qubits: []int{2}})
		c.Detectors = append(c.Detectors, circuit.Detector{Meas: []int{0}, Check: 0})
		return c
	}
	measRate := func(c *circuit.Circuit) float64 {
		model, err := dem.Extract(c)
		if err != nil {
			b.Fatal(err)
		}
		total := 0.0
		for _, ev := range model.Events {
			if len(ev.Dets) == 1 {
				total += ev.P
			}
		}
		return total
	}
	var rateA, rateB float64
	for i := 0; i < b.N; i++ {
		rateA = measRate(build(true))
		rateB = measRate(build(false))
	}
	if rateB >= rateA {
		b.Fatalf("orientation (b) (%.2e) should beat (a) (%.2e)", rateB, rateA)
	}
	b.ReportMetric(rateA/p, "orientA-rate-over-p")
	b.ReportMetric(rateB/p, "orientB-rate-over-p")
}

// BenchmarkAblationFlagSharing quantifies §IV-E: flag count and Reff
// with sharing off/on for the [[30,8,3,3]] code.
func BenchmarkAblationFlagSharing(b *testing.B) {
	code := catalogCode(b, "surface", 30)
	var flagsPlain, flagsShared float64
	for i := 0; i < b.N; i++ {
		plain, err := fpn.Build(code, fpn.Options{UseFlags: true, MaxDegree: 4})
		if err != nil {
			b.Fatal(err)
		}
		shared, err := fpn.Build(code, fpnArch)
		if err != nil {
			b.Fatal(err)
		}
		flagsPlain = float64(plain.CountByType()[fpn.Flag])
		flagsShared = float64(shared.CountByType()[fpn.Flag])
	}
	b.ReportMetric(flagsPlain, "flags-unshared")
	b.ReportMetric(flagsShared, "flags-shared")
}

// BenchmarkAblationRenormalization compares the flagged MWPM decoder
// with and without the Equation 9 renormalization on exhaustive single
// faults plus a small BER sample.
func BenchmarkAblationRenormalization(b *testing.B) {
	code := catalogCode(b, "surface", 30)
	net, err := fpn.Build(code, fpnArch)
	if err != nil {
		b.Fatal(err)
	}
	s, err := schedule.Greedy(net)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := schedule.BuildRoundPlan(s)
	if err != nil {
		b.Fatal(err)
	}
	nm := &noise.Model{P: 1e-3}
	c, err := circuit.BuildMemory(circuit.MemorySpec{Plan: plan, Basis: css.Z, Rounds: 3, Noise: nm})
	if err != nil {
		b.Fatal(err)
	}
	model, err := dem.Extract(c)
	if err != nil {
		b.Fatal(err)
	}
	var withBER, withoutBER float64
	for i := 0; i < b.N; i++ {
		res := sample(c, 1000, 5)
		for variant := 0; variant < 2; variant++ {
			dec, err := decoder.NewMWPM(model, css.Z, nm.MeasFlip(), true)
			if err != nil {
				b.Fatal(err)
			}
			dec.DisableRenorm = variant == 1
			errs := 0
			var lanes decoder.Defects
			for shot := 0; shot < 1000; shot++ {
				if shot%64 == 0 {
					lanes.Extract(res, shot, min(64, 1000-shot))
				}
				corr, err := dec.Decode(lanes.Lane(shot % 64))
				if err != nil {
					errs++
					continue
				}
				for o := range c.Observables {
					if corr[o] != res.ObservableBit(o, shot) {
						errs++
						break
					}
				}
			}
			if variant == 0 {
				withBER = float64(errs) / 1000
			} else {
				withoutBER = float64(errs) / 1000
			}
		}
	}
	b.ReportMetric(withBER, "eq9-on-BER")
	b.ReportMetric(withoutBER, "eq9-off-BER")
}

// BenchmarkAblationLatencyAwareIdle contrasts the paper's latency-scaled
// T1/T2 decoherence (§III-A) against the prior-work convention of a flat
// per-round idle error: the flat model misses the penalty of the FPN's
// longer (2.3 µs) rounds.
func BenchmarkAblationLatencyAwareIdle(b *testing.B) {
	code := catalogCode(b, "surface", 30)
	var scaled, flat float64
	for i := 0; i < b.N; i++ {
		rs, err := experiment.Run(experiment.Config{
			Code: code, Arch: fpnArch, Basis: css.Z, P: 1e-3,
			Shots: 600, Seed: 9, Decoder: experiment.FlaggedMWPM,
		})
		if err != nil {
			b.Fatal(err)
		}
		rf, err := experiment.Run(experiment.Config{
			Code: code, Arch: fpnArch, Basis: css.Z, P: 1e-3,
			Shots: 600, Seed: 9, Decoder: experiment.FlaggedMWPM, FixedIdle: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		scaled, flat = rs.BER, rf.BER
	}
	b.ReportMetric(scaled, "latency-scaled-BER")
	b.ReportMetric(flat, "fixed-idle-BER")
}
