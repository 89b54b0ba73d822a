package dem

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/fpn/flagproxy/internal/color"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/noise"
)

// projectRef is the map-based projection Project must agree with bit for
// bit: events keyed by their footprint string, merged in event order,
// emitted in sorted key order.
func projectRef(m *Model, basis css.Basis) []ProjEvent {
	merged := map[string]*ProjEvent{}
	for _, ev := range m.Events {
		var dets []int
		for _, d := range ev.Dets {
			if m.Circuit.Detectors[d].Basis == basis {
				dets = append(dets, d)
			}
		}
		if len(dets) == 0 && len(ev.Flags) == 0 {
			continue
		}
		key := footprintKey(dets, ev.Flags, ev.Obs)
		if e, ok := merged[key]; ok {
			e.P = e.P*(1-ev.P) + ev.P*(1-e.P)
		} else {
			merged[key] = &ProjEvent{Dets: dets, Flags: ev.Flags, Obs: ev.Obs, P: ev.P}
		}
	}
	keys := make([]string, 0, len(merged))
	//fpnvet:orderless collect-then-sort: keys are sorted before emission
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]ProjEvent, 0, len(keys))
	for _, k := range keys {
		out = append(out, *merged[k])
	}
	return out
}

// buildClassesRef is the map-based class builder BuildClasses must agree
// with: classes numbered by first member, members in event order.
func buildClassesRef(events []ProjEvent) []Class {
	index := map[string]int{}
	var classes []Class
	for _, ev := range events {
		key := footprintKey(ev.Dets, nil, nil)
		ci, ok := index[key]
		if !ok {
			ci = len(classes)
			index[key] = ci
			classes = append(classes, Class{Dets: ev.Dets})
		}
		classes[ci].Members = append(classes[ci].Members, ev)
	}
	return classes
}

// footprintKey is the string form of appendFootprintKey, written out
// independently of it.
func footprintKey(dets, flags, obs []int) string {
	b := make([]byte, 0, 4*(len(dets)+len(flags)+len(obs))+3)
	for _, d := range dets {
		b = appendInt(b, d)
	}
	b = append(b, '|')
	for _, f := range flags {
		b = appendInt(b, f)
	}
	b = append(b, '|')
	for _, o := range obs {
		b = appendInt(b, o)
	}
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// sameProjEvents reports the first difference between two projected
// event lists: order, footprint lists, or the bits of a probability.
func sameProjEvents(got, want []ProjEvent) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d events, reference %d", len(got), len(want))
	}
	for i, g := range got {
		r := want[i]
		if !reflect.DeepEqual(g.Dets, r.Dets) || !reflect.DeepEqual(g.Flags, r.Flags) || !reflect.DeepEqual(g.Obs, r.Obs) {
			return fmt.Errorf("event %d footprint %v|%v|%v, reference %v|%v|%v", i, g.Dets, g.Flags, g.Obs, r.Dets, r.Flags, r.Obs)
		}
		if math.Float64bits(g.P) != math.Float64bits(r.P) {
			return fmt.Errorf("event %d P = %v, reference %v", i, g.P, r.P)
		}
	}
	return nil
}

// sameProjection checks Project onto each basis, and BuildClasses of each
// projection, against the references.
func sameProjection(m *Model) error {
	for _, basis := range []css.Basis{css.Z, css.X} {
		got, want := m.Project(basis), projectRef(m, basis)
		if err := sameProjEvents(got, want); err != nil {
			return fmt.Errorf("Project(%c): %v", basis, err)
		}
		gc, wc := BuildClasses(got), buildClassesRef(want)
		if len(gc) != len(wc) {
			return fmt.Errorf("BuildClasses(%c): %d classes, reference %d", basis, len(gc), len(wc))
		}
		for ci := range gc {
			if !reflect.DeepEqual(gc[ci].Dets, wc[ci].Dets) {
				return fmt.Errorf("BuildClasses(%c): class %d dets %v, reference %v", basis, ci, gc[ci].Dets, wc[ci].Dets)
			}
			if err := sameProjEvents(gc[ci].Members, wc[ci].Members); err != nil {
				return fmt.Errorf("BuildClasses(%c): class %d members: %v", basis, ci, err)
			}
		}
	}
	return nil
}

// TestProjectMatchesReference holds Project and BuildClasses to their
// map-based references on referenceCircuits and on a small colour code's
// FPN in both memory bases, projecting each model onto both bases.
func TestProjectMatchesReference(t *testing.T) {
	circuits := referenceCircuits(t)
	hex, err := color.HexagonalToric(2)
	if err != nil {
		t.Fatal(err)
	}
	s := greedySchedule(t, hex, fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4})
	for _, basis := range []css.Basis{css.Z, css.X} {
		circuits = append(circuits, namedCircuit{
			fmt.Sprintf("hex-toric-2 fpn basis=%v", basis),
			plannedCircuit(t, s, basis, 3, &noise.Model{P: 1e-3}),
		})
	}
	for _, nc := range circuits {
		m, err := Extract(nc.c)
		if err != nil {
			t.Fatalf("%s: %v", nc.name, err)
		}
		if err := sameProjection(m); err != nil {
			t.Errorf("%s: %v", nc.name, err)
		}
	}
}
