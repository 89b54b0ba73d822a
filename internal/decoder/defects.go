package decoder

import (
	"math/bits"
	"slices"

	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/sim"
)

// Defects is the one extractor from the sampler's packed detector words
// to decode inputs: each lane's sorted, distinct fired detector and flag
// ids. Two passes over a block's words — per-lane counts, then a scatter
// in ascending detector order — cost O(detectors + defects) and need no
// sort. The zero value is ready; the buffer is reused across blocks.
type Defects struct {
	counts [64]int32 // per-lane defect counts, then fill cursors
	off    [65]int32 // per-lane extents into ids
	ids    []int32   // flattened per-lane sorted defect lists
}

// laneMask selects the first n lanes of a 64-shot word.
func laneMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// Extract splits lanes [firstShot, firstShot+n) of res — one sampling
// block: firstShot 64-aligned and n in (0, 64] — into per-lane defect
// lists, and returns the block's total defect count; 0 means every lane
// is empty.
func (x *Defects) Extract(res *sim.Result, firstShot, n int) int {
	wi, mask := firstShot>>6, laneMask(n)
	total := int32(0)
	clear(x.counts[:])
	for d := range res.Detectors {
		w := res.DetectorWord(d, wi) & mask
		for w != 0 {
			x.counts[bits.TrailingZeros64(w)]++
			total++
			w &= w - 1
		}
	}
	for l := 0; l < 64; l++ {
		x.off[l+1] = x.off[l] + x.counts[l]
		x.counts[l] = 0
	}
	if total == 0 {
		return 0
	}
	if cap(x.ids) < int(total) {
		x.ids = make([]int32, total)
	}
	x.ids = x.ids[:total]
	for d := range res.Detectors {
		w := res.DetectorWord(d, wi) & mask
		for w != 0 {
			l := bits.TrailingZeros64(w)
			x.ids[x.off[l]+x.counts[l]] = int32(d)
			x.counts[l]++
			w &= w - 1
		}
	}
	return int(total)
}

// Lane returns lane l's defect list from the last Extract. The slice
// aliases x and is valid until the next Extract.
func (x *Defects) Lane(l int) []int32 {
	lo, hi := x.off[l], x.off[l+1]
	return x.ids[lo:hi:hi]
}

// EventDefects returns the decode input of a set of faults fired
// together: the sorted ids of the detectors and flags that an odd
// number of them flip.
func EventDefects(evs ...dem.Event) []int32 {
	var ids []int32
	for _, ev := range evs {
		for _, d := range slices.Concat(ev.Dets, ev.Flags) {
			ids = append(ids, int32(d))
		}
	}
	slices.Sort(ids)
	out := ids[:0] // equal ids are adjacent: each one cancels the last
	for _, id := range ids {
		if n := len(out); n > 0 && out[n-1] == id {
			out = out[:n-1]
		} else {
			out = append(out, id)
		}
	}
	return out
}
