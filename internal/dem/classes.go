package dem

import (
	"math"

	"github.com/fpn/flagproxy/internal/css"
)

// ProjEvent is an event projected onto one syndrome basis for CSS
// decoding: Dets holds only detectors of that basis (flags are kept in
// full, since a flag conditions the interpretation of the syndrome).
type ProjEvent struct {
	Dets  []int
	Flags []int
	Obs   []int
	P     float64
}

// Project restricts the model's events to syndrome detectors of the
// given basis, merging events that become identical. Events whose
// projected syndrome is empty are kept when they carry flags: they form
// the empty-syndrome equivalence class, through which flag measurements
// catch propagation errors that are invisible to the parity checks
// (e.g. half-plaquette clusters on high-weight color checks).
//
// Merged probabilities fold in event order and the result is sorted by
// footprint key, as Extract sorts events. Projected detector lists
// share one backing array; flags and observables alias the model's.
func (m *Model) Project(basis css.Basis) []ProjEvent {
	total := 0
	for _, ev := range m.Events {
		total += len(ev.Dets)
	}
	// Projected event id is m.Events[first]'s flags and observables with
	// detectors arena[from:to], at probability p.
	type merged struct {
		first, from, to int32
		p               float64
	}
	arena := make([]int, 0, total)
	var evs []merged
	var keys Interner
	var key []byte
	for i, ev := range m.Events {
		from := len(arena)
		for _, d := range ev.Dets {
			if m.Circuit.Detectors[d].Basis == basis {
				arena = append(arena, d)
			}
		}
		if len(arena) == from && len(ev.Flags) == 0 {
			continue
		}
		key = appendFootprintKey(key[:0], arena[from:], ev.Flags, ev.Obs)
		if id, fresh := keys.Intern(key); !fresh {
			arena = arena[:from]
			e := &evs[id]
			e.p = e.p*(1-ev.P) + ev.P*(1-e.p)
			continue
		}
		evs = append(evs, merged{int32(i), int32(from), int32(len(arena)), ev.P})
	}
	out := make([]ProjEvent, len(evs))
	for i, id := range keys.order() {
		e := evs[id]
		var dets []int
		if e.to > e.from {
			dets = arena[e.from:e.to:e.to]
		}
		ev := &m.Events[e.first]
		out[i] = ProjEvent{Dets: dets, Flags: ev.Flags, Obs: ev.Obs, P: e.p}
	}
	return out
}

// Class is an error equivalence class (§VI-B): all projected events that
// flip the same syndrome bits, differing in flags and/or Pauli frames.
type Class struct {
	Dets    []int
	Members []ProjEvent
}

// BuildClasses groups projected events by their syndrome footprint.
// Classes are numbered in order of their first member, and members
// keep the events' order; all member lists share one backing array.
func BuildClasses(events []ProjEvent) []Class {
	var index Interner
	var key []byte
	classOf := make([]int32, len(events))
	for i, ev := range events {
		key = appendIDs(key[:0], ev.Dets)
		classOf[i], _ = index.Intern(key)
	}
	// start[ci] is class ci's first slot in members.
	start := make([]int, len(index.ends)+1)
	for _, ci := range classOf {
		start[ci+1]++
	}
	for ci := 1; ci < len(start); ci++ {
		start[ci] += start[ci-1]
	}
	members := make([]ProjEvent, len(events))
	classes := make([]Class, len(index.ends))
	for ci := range classes {
		classes[ci].Members = members[start[ci]:start[ci]:start[ci+1]]
	}
	for i, ci := range classOf {
		c := &classes[ci]
		if len(c.Members) == 0 {
			c.Dets = events[i].Dets
		}
		c.Members = append(c.Members, events[i])
	}
	return classes
}

// Select returns the class member whose flag set is most similar to the
// observed flags F (minimizing |f(e) ⊕ F|, ties broken by higher
// probability) together with the achieved flag difference. A nil f is
// the empty flag set.
func (c *Class) Select(f *FlagSet) (ProjEvent, int) {
	best := -1
	bestDiff := 0
	for i, m := range c.Members {
		diff := flagDiff(m.Flags, f)
		if best < 0 || diff < bestDiff ||
			(diff == bestDiff && m.P > c.Members[best].P) {
			best = i
			bestDiff = diff
		}
	}
	return c.Members[best], bestDiff
}

// Representative selects the flag-conditioned member and returns it with
// its Equation 9 renormalized probability:
// π → pM^{|f⊕F|} · π^{|σ|−1} when |F| > 0. A nil f is the empty flag
// set.
func (c *Class) Representative(f *FlagSet, pM float64) (ProjEvent, float64) {
	rep, bestDiff := c.Select(f)
	p := rep.P
	if f.Len() > 0 {
		p = math.Pow(pM, float64(bestDiff))
		if len(c.Dets) >= 2 {
			p *= math.Pow(rep.P, float64(len(c.Dets)-1))
		} else {
			p *= rep.P
		}
	}
	return rep, p
}

// flagDiff computes |flags(e) ⊕ F|.
func flagDiff(eventFlags []int, f *FlagSet) int {
	inter := 0
	for _, fl := range eventFlags {
		if f.Has(fl) {
			inter++
		}
	}
	return len(eventFlags) + f.Len() - 2*inter
}
