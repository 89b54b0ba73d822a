package decoder

import (
	"slices"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/dem"
)

// OperationallyRedundantFlags measures flag overuse (the paper's
// Figure 5 discussion) operationally: a flag detector is redundant if
// masking its measurement changes no single-fault decoding outcome.
// Only faults whose classes mention the flag are re-decoded, so the
// probe is cheap. The result is the sorted list of redundant flag
// detectors of the given basis graph.
func OperationallyRedundantFlags(model *dem.Model, basis css.Basis, pM float64) ([]int, error) {
	base, err := NewMWPM(model, basis, pM, true)
	if err != nil {
		return nil, err
	}
	// Events to probe per flag: any event whose footprint mentions it,
	// indexed by detector id, so the walk below lists flags ascending.
	byFlag := make([][]dem.Event, len(model.Circuit.Detectors))
	for _, ev := range model.Events {
		rel := false
		for _, d := range ev.Dets {
			if model.Circuit.Detectors[d].Basis == basis {
				rel = true
			}
		}
		if !rel {
			continue
		}
		for _, f := range ev.Flags {
			byFlag[f] = append(byFlag[f], ev)
		}
	}
	var redundant []int
	for f, events := range byFlag {
		same := len(events) > 0
		for _, ev := range events {
			// Masking the flag emulates an architecture that does not
			// measure it: the flag never reads as fired.
			defects := EventDefects(ev)
			masked := slices.DeleteFunc(slices.Clone(defects), func(id int32) bool { return int(id) == f })
			c1, err1 := base.Decode(defects)
			c2, err2 := base.Decode(masked)
			if (err1 == nil) != (err2 == nil) || err1 == nil && !slices.Equal(c1, c2) {
				same = false
				break
			}
		}
		if same {
			redundant = append(redundant, f)
		}
	}
	return redundant, nil
}
