package dem

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/noise"
	"github.com/fpn/flagproxy/internal/sim"
	"github.com/fpn/flagproxy/internal/surface"
)

// The sampler-vs-DEM oracle. The model predicts every column's firing
// rate and every co-firing rate of two columns that share an event;
// the frame simulator's empirical rates must agree within a fixed |z|
// bound. A column is a detector or flag (by detector index) or an
// observable (offset by the detector count). The model treats the
// components of each depolarizing channel as independent faults, which
// is exact only to first order, so the bound is wide; it still catches
// a model whose probabilities are all 25% high.

// oracleBound is the largest |z| any column or pair may show. It was
// fixed before looking at the data.
const oracleBound = 5.0

// colPair is two columns a < b that share at least one event.
type colPair struct{ a, b int }

// eventColumns lists e's columns: detectors, flags, then observables.
func eventColumns(e Event, nd int) []int {
	cols := make([]int, 0, len(e.Dets)+len(e.Flags)+len(e.Obs))
	cols = append(cols, e.Dets...)
	cols = append(cols, e.Flags...)
	for _, o := range e.Obs {
		cols = append(cols, nd+o)
	}
	return cols
}

// sharedPairs lists every column pair that shares an event, in first-
// seen order.
func sharedPairs(m *Model) []colPair {
	nd := len(m.Circuit.Detectors)
	seen := map[colPair]bool{}
	var pairs []colPair
	for _, e := range m.Events {
		cols := eventColumns(e, nd)
		for i, a := range cols {
			for _, b := range cols[i+1:] {
				pr := colPair{min(a, b), max(a, b)}
				if !seen[pr] {
					seen[pr] = true
					pairs = append(pairs, pr)
				}
			}
		}
	}
	return pairs
}

// oddRate is the probability that an odd number of independent events
// fire, given prod = Π(1 − 2pᵢ) over them.
func oddRate(prod float64) float64 { return (1 - prod) / 2 }

// predict returns the model's marginal rate of every column and the
// co-firing rate of every pair, with every event probability scaled by
// scale. A pair's events split into a-only, b-only and both, with odd
// rates q_a, q_b and q_ab; both columns fire iff the shared events fire
// an odd number of times and neither private set does, or the reverse.
func predict(m *Model, pairs []colPair, scale float64) (marg, pair []float64) {
	nd := len(m.Circuit.Detectors)
	ncol := nd + len(m.Circuit.Observables)
	prod := make([]float64, ncol)
	for i := range prod {
		prod[i] = 1
	}
	index := make(map[colPair]int, len(pairs))
	for i, pr := range pairs {
		index[pr] = i
	}
	prodAB := make([]float64, len(pairs))
	for i := range prodAB {
		prodAB[i] = 1
	}
	for _, e := range m.Events {
		f := 1 - 2*e.P*scale
		cols := eventColumns(e, nd)
		for i, a := range cols {
			prod[a] *= f
			for _, b := range cols[i+1:] {
				prodAB[index[colPair{min(a, b), max(a, b)}]] *= f
			}
		}
	}
	marg = make([]float64, ncol)
	for i, p := range prod {
		marg[i] = oddRate(p)
	}
	pair = make([]float64, len(pairs))
	for i, pr := range pairs {
		qab := oddRate(prodAB[i])
		qa := oddRate(prod[pr.a] / prodAB[i])
		qb := oddRate(prod[pr.b] / prodAB[i])
		pair[i] = qab*(1-qa)*(1-qb) + (1-qab)*qa*qb
	}
	return marg, pair
}

// sampleCounts samples shots lanes of c with BlockSampler and counts
// how often each column fires and each pair co-fires.
func sampleCounts(c *circuit.Circuit, pairs []colPair, shots int, seed int64) (marg, pair []int64) {
	const chunkBlocks = 128
	nd := len(c.Detectors)
	marg = make([]int64, nd+len(c.Observables))
	pair = make([]int64, len(pairs))
	rows := make([][]uint64, len(marg))
	smp := sim.NewBlockSampler(c, chunkBlocks)
	for first := 0; first < shots; first += chunkBlocks * 64 {
		res := smp.Run(first/64, min(chunkBlocks*64, shots-first), seed)
		for i := range rows {
			if i < nd {
				rows[i] = res.Detectors[i][:res.Words]
			} else {
				rows[i] = res.Observables[i-nd][:res.Words]
			}
		}
		for i, row := range rows {
			for _, w := range row {
				marg[i] += int64(bits.OnesCount64(w))
			}
		}
		for i, pr := range pairs {
			ra, rb := rows[pr.a], rows[pr.b]
			n := 0
			for w := range ra {
				n += bits.OnesCount64(ra[w] & rb[w])
			}
			pair[i] += int64(n)
		}
	}
	return marg, pair
}

// maxZ returns the largest binomial |z| of counts out of shots against
// the predicted rates, and its index. A zero rate with a nonzero count
// is an infinite z.
func maxZ(rate []float64, count []int64, shots int) (float64, int) {
	worst, at := 0.0, -1
	n := float64(shots)
	for i, p := range rate {
		z := 0.0
		switch {
		case p <= 0 && count[i] > 0:
			z = math.Inf(1)
		case p > 0:
			z = math.Abs(float64(count[i])-n*p) / math.Sqrt(n*p*(1-p))
		}
		if z > worst || at < 0 {
			worst, at = z, i
		}
	}
	return worst, at
}

// TestSamplerMatchesDEM holds BlockSampler's column and pair rates to
// the DEM's predictions on rotated d=3 and d=5 and the [[30,8,3,3]]
// code under the FPN, at two noise strengths.
func TestSamplerMatchesDEM(t *testing.T) {
	const shots = 1 << 19
	fpnOpt := fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}
	type family struct {
		name   string
		code   *css.Code
		rounds int
	}
	var fams []family
	for _, d := range []int{3, 5} {
		l, err := surface.Rotated(d)
		if err != nil {
			t.Fatal(err)
		}
		fams = append(fams, family{fmt.Sprintf("rotated-d%d", d), l.Code, d})
	}
	fams = append(fams, family{"hyper55", hyper55(t), 3})
	for _, fam := range fams {
		s := greedySchedule(t, fam.code, fpnOpt)
		for _, p := range []float64{1e-3, 5e-3} {
			t.Run(fmt.Sprintf("%s/p=%g", fam.name, p), func(t *testing.T) {
				c := plannedCircuit(t, s, css.Z, fam.rounds, &noise.Model{P: p})
				m, err := Extract(c)
				if err != nil {
					t.Fatal(err)
				}
				pairs := sharedPairs(m)
				gotM, gotP := sampleCounts(c, pairs, shots, 1)

				wantM, wantP := predict(m, pairs, 1)
				zm, im := maxZ(wantM, gotM, shots)
				zp, ip := maxZ(wantP, gotP, shots)
				t.Logf("%d columns: max |z| %.2f (column %d); %d pairs: max |z| %.2f (pair %v)",
					len(wantM), zm, im, len(pairs), zp, pairs[ip])
				if zm > oracleBound {
					t.Errorf("column %d fired %d of %d shots, model predicts rate %.3g: |z| = %.2f > %g",
						im, gotM[im], shots, wantM[im], zm, oracleBound)
				}
				if zp > oracleBound {
					t.Errorf("pair %v co-fired %d of %d shots, model predicts rate %.3g: |z| = %.2f > %g",
						pairs[ip], gotP[ip], shots, wantP[ip], zp, oracleBound)
				}

				// Negative control: a model 25% too noisy must fail.
				badM, badP := predict(m, pairs, 1.25)
				cm, _ := maxZ(badM, gotM, shots)
				cp, _ := maxZ(badP, gotP, shots)
				t.Logf("P scaled by 1.25: max |z| %.2f columns, %.2f pairs", cm, cp)
				if cm <= oracleBound && cp <= oracleBound {
					t.Errorf("a model with every P scaled by 1.25 passed (max |z| %.2f columns, %.2f pairs)", cm, cp)
				}
			})
		}
	}
}
