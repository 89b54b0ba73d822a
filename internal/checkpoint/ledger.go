// The one ledger policy: how a sweep point meets the store. Local ber
// sweeps and the fabric coordinator both run every point through
// Ledger.RunPoint, so the skip, resume, cadence and final-record rules
// are written once.
package checkpoint

import (
	"context"
	"fmt"

	"github.com/fpn/flagproxy/internal/experiment"
)

// DefaultEvery is the mid-run put cadence in committed 64-shot blocks:
// a SIGKILL loses at most ~16k shots of a point, while the atomic file
// rewrite stays far off the hot path.
const DefaultEvery = 256

// Ledger is a sweep's checkpoint policy. The zero value keeps no
// ledger: RunPoint just runs the point.
type Ledger struct {
	// Store receives each point's committed prefix; nil means none.
	Store *Store
	// Resume answers points the store records as done from their
	// record and continues partial ones from their recorded prefix.
	// Without it every point is recomputed and its record overwritten.
	Resume bool
	// Every is the mid-run put cadence in committed blocks; 0 means
	// DefaultEvery.
	Every int
	// Report receives every failed Put (nil drops them). A failed put
	// never stops the run; the next put flushes the record again.
	Report func(error)
}

// RunPoint runs one sweep point through run under the ledger. With a
// store it looks the point up by fingerprint; under Resume a done
// record is answered by experiment.Reconstruct without calling run, and
// a partial one becomes cfg.Resume. The committed prefix is put every
// Every blocks, after the caller's own OnCommit hook has seen the
// commit, and once more when run returns: as done iff the point was
// neither interrupted nor left with quarantined shards.
func (l Ledger) RunPoint(ctx context.Context, cfg experiment.Config, run func(context.Context, experiment.Config) (*experiment.Result, error)) (*experiment.Result, error) {
	if l.Store == nil {
		return run(ctx, cfg)
	}
	key := cfg.Fingerprint()
	if rec, ok := l.Store.Lookup(key); ok && l.Resume {
		if rec.Done {
			return experiment.Reconstruct(cfg, rec.Blocks, rec.Shots, rec.Errors, rec.EarlyStopped), nil
		}
		cfg.Resume = &experiment.Resume{Blocks: rec.Blocks, Shots: rec.Shots, Errors: rec.Errors}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("checkpoint: record %s does not match the configuration: %w", key, err)
		}
	}
	every := l.Every
	if every <= 0 {
		every = DefaultEvery
	}
	last, next := 0, cfg.OnCommit
	if cfg.Resume != nil {
		last = cfg.Resume.Blocks
	}
	cfg.OnCommit = func(p experiment.Progress) {
		if next != nil {
			next(p)
		}
		if p.Blocks-last < every {
			return
		}
		last = p.Blocks
		l.put(Record{Key: key, Blocks: p.Blocks, Shots: p.Shots, Errors: p.Errors})
	}
	res, err := run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	l.put(Record{
		Key: key, Blocks: res.Blocks, Shots: res.Shots, Errors: res.LogicalErrors,
		EarlyStopped: res.EarlyStopped,
		Done:         !res.Interrupted && len(res.ShardErrors) == 0,
	})
	return res, nil
}

func (l Ledger) put(rec Record) {
	if err := l.Store.Put(rec); err != nil && l.Report != nil {
		l.Report(err)
	}
}
