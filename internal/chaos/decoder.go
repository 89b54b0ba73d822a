package chaos

import (
	"slices"
	"sync/atomic"
	"time"

	"github.com/fpn/flagproxy/internal/decoder"
)

// Decoder mirrors experiment.Decoder structurally, so the wrappers here
// plug straight into experiment.Config.WrapDecoder without this package
// importing the engine. A shot is its defect list: fired detector and
// flag ids, sorted and distinct. Ids outside the decoder's graph are
// ignored; no wrapper modifies the list or retains it past the call.
type Decoder interface {
	Decode(defects []int32) ([]bool, error)
}

// SlowDecoder sleeps before every decode call: a decoder that crawls
// but finishes. Under a generous Config.DecodeTimeout it must change
// nothing; under a tight one it trips the deadline path.
type SlowDecoder struct {
	Inner Decoder
	Delay time.Duration
}

// Decode sleeps Delay, then delegates.
func (d *SlowDecoder) Decode(defects []int32) ([]bool, error) {
	time.Sleep(d.Delay)
	return d.Inner.Decode(defects)
}

// HungDecoder blocks exactly one decode call (0-based index HangAt)
// until Release is closed: a decoder that wedges without panicking, the
// failure mode only Config.DecodeTimeout can catch. Tests must close
// Release before returning so the abandoned attempt goroutine exits.
type HungDecoder struct {
	Inner   Decoder
	HangAt  int64
	Release chan struct{}
	calls   atomic.Int64
}

// Decode blocks on call HangAt until Release is closed, then delegates.
func (d *HungDecoder) Decode(defects []int32) ([]bool, error) {
	if d.calls.Add(1)-1 == d.HangAt {
		<-d.Release
	}
	return d.Inner.Decode(defects)
}

// Calls reports how many decode calls the wrapper has seen.
func (d *HungDecoder) Calls() int64 { return d.calls.Load() }

// PanicDecoder panics on exactly one decode call (0-based index
// PanicAt), imitating an unrecovered invariant failure deep in a
// third-party decoder — the engine must quarantine or fall back, never
// die.
type PanicDecoder struct {
	Inner   Decoder
	PanicAt int64
	calls   atomic.Int64
}

// Decode panics on call PanicAt, otherwise delegates.
func (d *PanicDecoder) Decode(defects []int32) ([]bool, error) {
	if d.calls.Add(1)-1 == d.PanicAt {
		panic("chaos: injected decoder panic")
	}
	return d.Inner.Decode(defects)
}

// CorruptingDecoder flips one plan-chosen detector on every Every-th
// decode call (calls 0, Every, 2*Every, …) before delegating, modeling
// corruption between sampler and decoder. The flipped detector is
// derived from (Plan, call index), so a run replays bit-identically
// under the same plan — provided the engine runs with Workers=1, since
// the call→shot mapping depends on worker interleaving otherwise.
type CorruptingDecoder struct {
	Inner     Decoder
	Plan      Plan
	Every     int64 // corrupt calls where call%Every == 0; <= 0 disables
	Detectors int   // detector-index range to corrupt within
	calls     atomic.Int64
	flips     atomic.Int64
}

// Decode corrupts the syndrome on scheduled calls, then delegates. The
// chosen detector is toggled in a private copy of the list: the
// caller's list is also its memo key and must stay intact.
func (d *CorruptingDecoder) Decode(defects []int32) ([]bool, error) {
	n := d.calls.Add(1) - 1
	if d.Every > 0 && d.Detectors > 0 && n%d.Every == 0 {
		d.flips.Add(1)
		flip := int32(d.Plan.Pick("corrupt-detector", d.Detectors, uint64(n)))
		i, fired := slices.BinarySearch(defects, flip)
		if fired {
			defects = slices.Delete(slices.Clone(defects), i, i+1)
		} else {
			defects = slices.Insert(slices.Clone(defects), i, flip)
		}
	}
	return d.Inner.Decode(defects)
}

// Flips reports how many decode calls were served a corrupted syndrome.
func (d *CorruptingDecoder) Flips() int64 { return d.flips.Load() }

// MemoPoisoner corrupts the batch decode path's direct-mapped syndrome
// memo through the decoder.Batch MemoFault seam: one in Every memo
// stores, the empty syndrome's included — chosen deterministically by
// the entry's key hash, so every store of the same syndrome is poisoned
// identically and the run's outputs stay bit-identical for any worker
// count — has observable 0 of its cached prediction flipped. A poisoned memo silently mis-predicts repeated
// syndromes, the exact failure the batch-vs-scalar differential tests
// exist to catch; the chaos suite uses this to prove they do.
type MemoPoisoner struct {
	Plan  Plan
	Every int // poison stores where the key-hash draw lands on 0; <= 0 disables
	flips atomic.Int64
}

// Wrap returns dec with the poisoning fault installed. Decoders without
// a batch path pass through untouched (their shards decode scalar and
// never consult a memo).
func (m *MemoPoisoner) Wrap(dec Decoder) Decoder {
	b, ok := dec.(*decoder.Batch)
	if !ok {
		return dec
	}
	pb := decoder.NewBatch(b.Inner())
	pb.MemoFault = func(keyHash uint64, pred []uint64) {
		if m.Every > 0 && m.Plan.Pick("poison-memo", m.Every, keyHash) == 0 {
			m.flips.Add(1)
			pred[0] ^= 1 // observable 0 always exists
		}
	}
	return pb
}

// Flips reports how many memo stores were poisoned.
func (m *MemoPoisoner) Flips() int64 { return m.flips.Load() }
