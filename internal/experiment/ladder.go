// The decode-attempt ladder, climbed per shard by the sweep engine, per
// window by internal/rtd and per fallback-flagged lease by the fabric
// worker. Rungs are the primary decoder, then Config.Fallback in order,
// skipping kinds that cannot be built. A panic or a missed deadline
// moves to the next rung; a returned decode error is final.
package experiment

import (
	"runtime/debug"
	"sync"
	"time"
)

// Verdict says how a climb ended.
type Verdict int

const (
	VerdictOK       Verdict = iota // the first rung answered
	VerdictRescued                 // the first rung panicked; a later rung answered
	VerdictDegraded                // the first rung missed its deadline; a later rung answered
	VerdictFailed                  // no rung answered; the first one panicked
	VerdictDeadline                // no rung answered; the first one missed its deadline
)

// TimedOut reports that the first rung missed its deadline.
func (v Verdict) TimedOut() bool { return v == VerdictDegraded || v == VerdictDeadline }

// Failed reports that no rung answered.
func (v Verdict) Failed() bool { return v == VerdictFailed || v == VerdictDeadline }

// Fault is a recovered panic and the stack where it was caught.
type Fault struct {
	Value any
	Stack []byte
}

// Outcome is the result of one climb. Kind is the decoder that produced
// Val or Err (the first rung's when no rung answered); Err is that
// rung's returned error, final; Fault is the first rung's panic.
type Outcome[T any] struct {
	Verdict Verdict
	Kind    DecoderKind
	Val     T
	Err     error
	Fault   *Fault
}

// Ladder is one decode stack's attempt policy.
type Ladder struct {
	pools   *decoderPools
	chain   []DecoderKind
	timeout time.Duration                        // 0: attempts run inline
	after   func(time.Duration) <-chan time.Time // nil: a wall-clock timer
}

func newLadder(cfg Config, dec Decoder, mk func(DecoderKind) (Decoder, error)) *Ladder {
	pools := &decoderPools{kind: cfg.Decoder, primary: NewDecoderPool(dec), mk: mk, fb: map[DecoderKind]*DecoderPool{}}
	return &Ladder{pools: pools, chain: cfg.Fallback, timeout: cfg.DecodeTimeout}
}

// Climb runs try on each rung until one answers. primary is the
// caller's handle on the primary pool (nil starts at the first
// fallback); if abandoned it is replaced by a fresh open. Fallback
// handles are opened per attempt and released after it.
func Climb[H interface{ Release() }, T any](l *Ladder, primary *H, open func(*DecoderPool) H, try func(H) (T, error)) Outcome[T] {
	var out Outcome[T]
	tried, timedOut := false, false // the first failed rung names the verdict
	// step reports whether the climb is over and whether h was abandoned.
	step := func(h H, k DecoderKind) (over, abandoned bool) {
		r, ok := attempt(l, h, try)
		if ok && r.fault == nil {
			out.Verdict, out.Kind, out.Val, out.Err = VerdictOK, k, r.val, r.err
			if tried {
				out.Verdict = VerdictRescued
				if timedOut {
					out.Verdict = VerdictDegraded
				}
			}
			return true, false
		}
		if !tried {
			out.Kind, out.Fault, tried, timedOut = k, r.fault, true, !ok
		}
		return false, !ok
	}
	if primary != nil {
		over, abandoned := step(*primary, l.pools.kind)
		if abandoned {
			*primary = open(l.pools.primary)
		}
		if over {
			return out
		}
	}
	for _, k := range l.chain {
		if p := l.pools.fallback(k); p != nil {
			h := open(p)
			over, abandoned := step(h, k)
			if !abandoned {
				h.Release()
			}
			if over {
				return out
			}
		}
	}
	out.Verdict = VerdictFailed
	if timedOut {
		out.Verdict = VerdictDeadline
	}
	return out
}

type attemptResult[T any] struct {
	val   T
	err   error
	fault *Fault
}

// attempt runs try on h, recovering a panic into a Fault. Under a
// deadline it runs on its own goroutine, and ok=false means it was
// abandoned and keeps h; a result that lands as the timer fires wins.
func attempt[H, T any](l *Ladder, h H, try func(H) (T, error)) (r attemptResult[T], ok bool) {
	if l.timeout <= 0 {
		return guard(h, try), true // inline: no goroutine, no allocation
	}
	ch := make(chan attemptResult[T], 1) // buffered: an abandoned attempt's send never blocks
	go func() { ch <- guard(h, try) }()
	var fire <-chan time.Time
	if l.after != nil {
		fire = l.after(l.timeout)
	} else {
		t := time.NewTimer(l.timeout)
		defer t.Stop() // go 1.22: an unstopped timer lives until it fires
		fire = t.C
	}
	select {
	case r = <-ch:
		return r, true
	case <-fire:
		select { // photo finish: a result that just landed beats the deadline
		case r = <-ch:
			return r, true
		default:
			return r, false
		}
	}
}

func guard[H, T any](h H, try func(H) (T, error)) (r attemptResult[T]) {
	defer func() {
		if v := recover(); v != nil {
			r = attemptResult[T]{fault: &Fault{Value: v, Stack: debug.Stack()}}
		}
	}()
	r.val, r.err = try(h)
	return r
}

// decoderPools is one decode stack's primary pool plus one pool per
// fallback kind, built on first use from buildTail's factory (nil when
// the kind cannot be built). Safe for concurrent use.
type decoderPools struct {
	kind    DecoderKind                        // the primary decoder's
	primary *DecoderPool                       //fpnvet:unguarded immutable after newLadder
	mk      func(DecoderKind) (Decoder, error) // nil: no fallback can be built

	mu sync.Mutex
	fb map[DecoderKind]*DecoderPool //fpnvet:guardedby mu
}

// fallback returns kind k's pool, building it on first use.
func (ps *decoderPools) fallback(k DecoderKind) *DecoderPool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	p, ok := ps.fb[k]
	if !ok && ps.mk != nil {
		if d, err := ps.mk(k); err == nil {
			p = NewDecoderPool(d)
		}
	}
	ps.fb[k] = p
	return p
}

// memoStats sums the batch-memo counters over every pool built so far.
func (ps *decoderPools) memoStats() (hits, misses int64) {
	hits, misses = ps.primary.MemoStats()
	ps.mu.Lock()
	defer ps.mu.Unlock()
	//fpnvet:orderless commutative sum of per-pool counters; order cannot affect the total
	for _, p := range ps.fb {
		if p != nil {
			h, m := p.MemoStats()
			hits += h
			misses += m
		}
	}
	return hits, misses
}
