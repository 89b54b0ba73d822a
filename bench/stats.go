package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// sortedCopy returns xs sorted ascending; +Inf (a failed window) sorts
// last, so it lands in the printed tail percentiles where it belongs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// committed drops the +Inf latencies of windows that were not committed.
func committed(lat []float64) []float64 {
	var ok []float64
	for _, l := range lat {
		if !math.IsInf(l, 1) {
			ok = append(ok, l)
		}
	}
	return ok
}

// rank returns the nearest-rank q-quantile of sorted samples: the
// smallest sample with at least a q share of the samples at or below it.
func rank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median is the middle of xs (the mean of the two middle samples for an
// even count).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailQuantile is the highest quantile of n samples that still has at
// least ten samples beyond it, or 0 when n is too small to have one.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 0
	}
	return 1 - 10/float64(n)
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads printed here match an outside check of the same runs.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// progress is a cumulative count sampled as it grows: the shots behind
// the commit frontier, or the windows answered so far.
type progress struct {
	mu sync.Mutex
	at []time.Time
	n  []float64
}

func (p *progress) mark(n float64) {
	now := time.Now()
	p.mu.Lock()
	p.at = append(p.at, now)
	p.n = append(p.n, n)
	p.mu.Unlock()
}

// tick adds one to the count.
func (p *progress) tick() {
	now := time.Now()
	p.mu.Lock()
	last := 0.0
	if len(p.n) > 0 {
		last = p.n[len(p.n)-1]
	}
	p.at = append(p.at, now)
	p.n = append(p.n, last+1)
	p.mu.Unlock()
}

// sliceSpan is the length of one throughput slice.
const sliceSpan = 100 * time.Millisecond

// sustained is the median rate over consecutive slices of at least
// sliceSpan. The median ignores the minority of slices a busy
// neighbour on a shared machine slows down, which a whole-run average
// would fold in. Runs too short for three slices fall back to whole.
func (p *progress) sustained(whole float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var rates []float64
	start := 0
	for i := 1; i < len(p.at); i++ {
		if dt := p.at[i].Sub(p.at[start]); dt >= sliceSpan {
			rates = append(rates, (p.n[i]-p.n[start])/dt.Seconds())
			start = i
		}
	}
	if len(rates) < 3 {
		return whole
	}
	return median(rates)
}
