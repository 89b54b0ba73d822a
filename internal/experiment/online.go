// Online serving seam: the p-dependent tail of a pipeline — circuit,
// decoder pools, decode-attempt ladder — packaged for long-running
// services that decode externally supplied syndromes one at a time
// instead of sweeping sampled shots. The decode stack is byte-for-byte
// the sweep engine's (buildTail, newLadder), so a correction computed
// online is bit-identical to what an offline batch sweep would have
// committed for the same syndrome.
package experiment

import (
	"time"

	"github.com/fpn/flagproxy/internal/circuit"
)

// Online exposes one configured decode stack for streaming use. It is
// safe for concurrent Acquire/AcquireFallback calls; each returned
// PooledDecoder is single-goroutine property of its caller until
// Release.
type Online struct {
	cfg    Config
	c      *circuit.Circuit
	ladder *Ladder
}

// NewOnline builds the online decode stack for cfg through exactly the
// sweep engine's tail. cfg.Shots is a sweep-budget knob with no online
// meaning and defaults to 1 to satisfy validation; everything else —
// decoder kind, fallback chain, decode deadline, P, Rounds, Basis,
// WrapDecoder — carries its usual contract.
func (pl *Pipeline) NewOnline(cfg Config) (*Online, error) {
	if cfg.Shots <= 0 {
		cfg.Shots = 1
	}
	t, err := pl.buildTail(cfg)
	if err != nil {
		return nil, err
	}
	return &Online{cfg: t.cfg, c: t.c, ladder: newLadder(t.cfg, t.dec, t.mk)}, nil
}

// Circuit returns the noisy memory circuit the decoder was extracted
// from: its Detectors (with per-round metadata) define the syndrome
// layout an online stream must follow, its Observables the correction
// layout.
func (o *Online) Circuit() *circuit.Circuit { return o.c }

// Config returns the normalized configuration (defaults resolved), the
// one whose Fingerprint identifies this stack on the wire.
func (o *Online) Config() Config { return o.cfg }

// Ladder returns the stack's decode-attempt ladder with deadlines armed
// by after (an injected clock; nil means the wall clock).
func (o *Online) Ladder(after func(time.Duration) <-chan time.Time) *Ladder {
	l := *o.ladder
	l.after = after
	return &l
}

// Acquire borrows a primary-decoder handle. Callers own it until
// Release; a handle abandoned to a stuck decode goroutine (deadline
// expiry) is simply never released, exactly as in the sweep engine.
func (o *Online) Acquire() *PooledDecoder { return o.ladder.pools.primary.Get() }

// AcquireFallback borrows a handle on the shared pool for fallback kind
// k, building the pool on first use. It returns nil when k cannot be
// constructed for this model.
func (o *Online) AcquireFallback(k DecoderKind) *PooledDecoder {
	if p := o.ladder.pools.fallback(k); p != nil {
		return p.Get()
	}
	return nil
}

// MemoStats sums the batch-memo counters over the primary pool and
// every fallback pool built so far.
func (o *Online) MemoStats() (hits, misses int64) { return o.ladder.pools.memoStats() }
