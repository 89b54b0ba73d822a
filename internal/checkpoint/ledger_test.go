package checkpoint

import (
	"context"
	"testing"
	"time"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/experiment"
	"github.com/fpn/flagproxy/internal/surface"
)

// ledgerBlocks is the fake point's length: long enough for three
// mid-run puts at the default cadence.
const ledgerBlocks = 1000

func ledgerProgress(blocks int) experiment.Progress {
	return experiment.Progress{Blocks: blocks, Shots: blocks * 64, Errors: blocks / 8}
}

// fakePoint stands in for a sweep point's engine: it commits blocks one
// at a time through cfg.OnCommit, from the resumed prefix on, and
// returns the committed counts the way Pipeline.RunContext does.
type fakePoint struct {
	interrupt bool // report the run as cancelled
	shardErr  bool // report one quarantined shard

	calls   int
	got     experiment.Config // the config of the last call
	commits int               // OnCommit calls the run made
}

func (f *fakePoint) run(_ context.Context, cfg experiment.Config) (*experiment.Result, error) {
	f.calls++
	f.got = cfg
	start := 0
	if cfg.Resume != nil {
		start = cfg.Resume.Blocks
	}
	for b := start + 1; b <= ledgerBlocks; b++ {
		f.commits++
		if cfg.OnCommit != nil {
			cfg.OnCommit(ledgerProgress(b))
		}
	}
	p := ledgerProgress(ledgerBlocks)
	res := experiment.Reconstruct(cfg, p.Blocks, p.Shots, p.Errors, false)
	res.Interrupted = f.interrupt
	if f.shardErr {
		res.ShardErrors = []experiment.ShardError{{FirstBlock: ledgerBlocks}}
	}
	return res, nil
}

// TestLedgerRunPoint pins the one ledger policy: which points
// run, what they resume from, when the prefix is put, and when the
// final record says done.
func TestLedgerRunPoint(t *testing.T) {
	l, err := surface.Rotated(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiment.Config{Code: l.Code, Basis: css.Z, P: 1e-3, Shots: ledgerBlocks * 64, Seed: 5}
	key := cfg.Fingerprint()
	final := ledgerProgress(ledgerBlocks)
	cases := []struct {
		name      string
		noStore   bool
		seed      *Record // the point's record before the run
		resume    bool
		every     int
		failPuts  bool
		point     fakePoint
		wantCalls int
		wantFrom  int    // the Resume.Blocks the run got; 0 means no Resume
		wantPuts  []int  // committed-block counts of the mid-run puts, in order
		wantRec   Record // the point's record after the run
		wantRes   [3]int // blocks, shots, errors of the returned result
		wantEarly bool   // the returned result's EarlyStopped
		reports   int    // failed puts reported
	}{
		{
			name: "nil store just runs", noStore: true, resume: true,
			wantCalls: 1,
			wantRes:   [3]int{final.Blocks, final.Shots, final.Errors},
		},
		{
			name: "done record under resume is not rerun",
			seed: &Record{Key: key, Blocks: 3, Shots: 192, Errors: 5, EarlyStopped: true, Done: true}, resume: true,
			wantCalls: 0,
			wantRec:   Record{Key: key, Blocks: 3, Shots: 192, Errors: 5, EarlyStopped: true, Done: true},
			wantRes:   [3]int{3, 192, 5}, wantEarly: true,
		},
		{
			name: "done record without resume is recomputed and overwritten",
			seed: &Record{Key: key, Blocks: 1, Shots: 64, Errors: 7, Done: true},
			// The store's merge ranks a done record above any in-progress
			// prefix, so only the final put replaces it.
			wantCalls: 1,
			wantRec:   Record{Key: key, Blocks: final.Blocks, Shots: final.Shots, Errors: final.Errors, Done: true},
			wantRes:   [3]int{final.Blocks, final.Shots, final.Errors},
		},
		{
			name: "partial record under resume continues from its prefix",
			seed: &Record{Key: key, Blocks: 100, Shots: 6400, Errors: 12}, resume: true,
			wantCalls: 1, wantFrom: 100, wantPuts: []int{356, 612, 868},
			wantRec: Record{Key: key, Blocks: final.Blocks, Shots: final.Shots, Errors: final.Errors, Done: true},
			wantRes: [3]int{final.Blocks, final.Shots, final.Errors},
		},
		{
			name:      "partial record without resume starts over",
			seed:      &Record{Key: key, Blocks: 100, Shots: 6400, Errors: 12},
			wantCalls: 1, wantPuts: []int{256, 512, 768},
			wantRec: Record{Key: key, Blocks: final.Blocks, Shots: final.Shots, Errors: final.Errors, Done: true},
			wantRes: [3]int{final.Blocks, final.Shots, final.Errors},
		},
		{
			name: "cadence follows Every", every: 400,
			wantCalls: 1, wantPuts: []int{400, 800},
			wantRec: Record{Key: key, Blocks: final.Blocks, Shots: final.Shots, Errors: final.Errors, Done: true},
			wantRes: [3]int{final.Blocks, final.Shots, final.Errors},
		},
		{
			name: "interrupted run is not done", point: fakePoint{interrupt: true},
			wantCalls: 1, wantPuts: []int{256, 512, 768},
			wantRec: Record{Key: key, Blocks: final.Blocks, Shots: final.Shots, Errors: final.Errors},
			wantRes: [3]int{final.Blocks, final.Shots, final.Errors},
		},
		{
			name: "quarantined shard is not done", point: fakePoint{shardErr: true},
			wantCalls: 1, wantPuts: []int{256, 512, 768},
			wantRec: Record{Key: key, Blocks: final.Blocks, Shots: final.Shots, Errors: final.Errors},
			wantRes: [3]int{final.Blocks, final.Shots, final.Errors},
		},
		{
			name:     "failed puts are reported and the run completes",
			failPuts: true,
			// Three mid-run puts and the final one; the store keeps the
			// record in memory, so Lookup still sees it.
			wantCalls: 1, wantPuts: []int{256, 512, 768}, reports: 4,
			wantRec: Record{Key: key, Blocks: final.Blocks, Shots: final.Shots, Errors: final.Errors, Done: true},
			wantRes: [3]int{final.Blocks, final.Shots, final.Errors},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := &flakyFS{FS: OSFS()}
			ledger := Ledger{Resume: tc.resume, Every: tc.every}
			if !tc.noStore {
				st, err := OpenOptions(t.TempDir(), Options{FS: fs, RetryAttempts: 1, Sleep: func(time.Duration) {}})
				if err != nil {
					t.Fatal(err)
				}
				if tc.seed != nil {
					if err := st.Put(*tc.seed); err != nil {
						t.Fatal(err)
					}
				}
				ledger.Store = st
			}
			if tc.failPuts {
				fs.failCreates = 1 << 30
			}
			reports := 0
			ledger.Report = func(error) { reports++ }
			// The caller's own hook must see every commit; it runs before
			// the ledger's put at the same commit, so it sees each mid-run
			// put land one commit later (and never the final one).
			seen, puts, last := 0, []int(nil), -1
			if tc.seed != nil {
				last = tc.seed.Blocks
			}
			in := cfg
			in.OnCommit = func(experiment.Progress) {
				seen++
				if ledger.Store == nil {
					return
				}
				if rec, ok := ledger.Store.Lookup(key); ok && rec.Blocks != last {
					last = rec.Blocks
					puts = append(puts, rec.Blocks)
				}
			}
			pt := tc.point
			res, err := ledger.RunPoint(context.Background(), in, pt.run)
			if err != nil {
				t.Fatal(err)
			}
			if pt.calls != tc.wantCalls {
				t.Fatalf("run called %d times, want %d", pt.calls, tc.wantCalls)
			}
			if got := [3]int{res.Blocks, res.Shots, res.LogicalErrors}; got != tc.wantRes || res.EarlyStopped != tc.wantEarly {
				t.Errorf("result blocks/shots/errors = %v early=%t, want %v early=%t", got, res.EarlyStopped, tc.wantRes, tc.wantEarly)
			}
			if want := experiment.Reconstruct(in, tc.wantRes[0], tc.wantRes[1], tc.wantRes[2], tc.wantEarly); res.BER != want.BER || res.CILow != want.CILow || res.CIHigh != want.CIHigh {
				t.Errorf("result statistics %g [%g,%g], want Reconstruct's %g [%g,%g]", res.BER, res.CILow, res.CIHigh, want.BER, want.CILow, want.CIHigh)
			}
			if pt.calls == 0 {
				return
			}
			from := 0
			if r := pt.got.Resume; r != nil {
				from = r.Blocks
				if want := ledgerProgress(from); r.Shots != want.Shots || r.Errors != tc.seed.Errors {
					t.Errorf("Resume = %+v, want the record's prefix", *r)
				}
			}
			if from != tc.wantFrom {
				t.Errorf("run resumed from block %d, want %d", from, tc.wantFrom)
			}
			if seen != pt.commits {
				t.Errorf("caller's OnCommit saw %d of %d commits", seen, pt.commits)
			}
			if reports != tc.reports {
				t.Errorf("%d failed puts reported, want %d", reports, tc.reports)
			}
			if ledger.Store == nil {
				return
			}
			if !equalInts(puts, tc.wantPuts) {
				t.Errorf("mid-run puts at blocks %v, want %v", puts, tc.wantPuts)
			}
			if rec, ok := ledger.Store.Lookup(key); !ok || rec != tc.wantRec {
				t.Errorf("record after the run = %+v (ok=%t), want %+v", rec, ok, tc.wantRec)
			}
		})
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
