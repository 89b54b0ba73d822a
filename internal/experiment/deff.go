package experiment

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/decoder"
	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/seedmix"
)

// DeffReport measures a decoder's effective distance behaviour: a
// circuit is fault-tolerant to order t when every combination of t
// elementary faults decodes without a logical error, giving
// deff ≥ 2t+1 (§II-F). Single faults are tested exhaustively;
// higher orders are sampled.
type DeffReport struct {
	Faults          int // elementary single-fault events tested
	SingleFailures  int // single faults miscorrected
	Ambiguous       int // single faults no decoder could distinguish
	PairsSampled    int
	PairFailures    int
	DeffLowerBound  int // 3 if all unambiguous singles pass, else 2
	DeffUpperHint   int // 3 if any sampled pair fails, 5 otherwise (hint only)
	FlaggedFraction float64
}

// MeasureDeff builds the configuration's memory circuit, error model
// and decoder through the engine's pipeline — cfg.Schedule, FixedIdle
// and CodeCapacity included — and probes the decoder with exhaustive
// single faults and pairSamples random fault pairs. cfg.Shots has no
// meaning here and defaults to 1 to satisfy validation.
func MeasureDeff(cfg Config, pairSamples int) (*DeffReport, error) {
	if cfg.Shots <= 0 {
		cfg.Shots = 1
	}
	pl, err := newPipelineFor(cfg)
	if err != nil {
		return nil, err
	}
	t, err := pl.buildTail(cfg)
	if err != nil {
		return nil, err
	}
	cfg, c, model, dec := t.cfg, t.c, t.model, t.dec
	rep := &DeffReport{}
	amb := ambiguousKeys(model)
	var relevant []dem.Event
	flagged := 0
	for _, ev := range model.Events {
		if !eventRelevant(model.Circuit, ev, cfg.Basis) {
			continue
		}
		relevant = append(relevant, ev)
		if len(ev.Flags) > 0 {
			flagged++
		}
	}
	rep.Faults = len(relevant)
	if rep.Faults > 0 {
		rep.FlaggedFraction = float64(flagged) / float64(rep.Faults)
	}
	for _, ev := range relevant {
		ok, err := decodeEvent(dec, c, []dem.Event{ev})
		if err != nil {
			return nil, err
		}
		if !ok {
			rep.SingleFailures++
			if amb[eventDetFlagKey(ev)] {
				rep.Ambiguous++
			}
		}
	}
	rep.DeffLowerBound = 2
	if rep.SingleFailures <= rep.Ambiguous {
		rep.DeffLowerBound = 3
	}
	// Sampled fault pairs.
	rng := rand.New(rand.NewSource(seedmix.Derive(cfg.Seed, seedmix.String("deff-pairs"))))
	for i := 0; i < pairSamples && len(relevant) >= 2; i++ {
		a := relevant[rng.Intn(len(relevant))]
		b := relevant[rng.Intn(len(relevant))]
		ok, err := decodeEvent(dec, c, []dem.Event{a, b})
		if err != nil {
			return nil, err
		}
		rep.PairsSampled++
		if !ok {
			rep.PairFailures++
		}
	}
	rep.DeffUpperHint = 5
	if rep.PairFailures > 0 {
		rep.DeffUpperHint = 3
	}
	return rep, nil
}

// decodeEvent synthesizes the combined detector readout of the faults,
// decodes it and compares against the combined observable flips.
func decodeEvent(dec Decoder, c *circuit.Circuit, events []dem.Event) (bool, error) {
	obs := map[int]bool{}
	for _, ev := range events {
		for _, o := range ev.Obs {
			obs[o] = !obs[o]
		}
	}
	corr, err := dec.Decode(decoder.EventDefects(events...))
	if err != nil {
		return false, nil // decode failure counts as a logical error
	}
	for o := range c.Observables {
		if corr[o] != obs[o] {
			return false, nil
		}
	}
	return true, nil
}

func eventRelevant(c *circuit.Circuit, ev dem.Event, basis css.Basis) bool {
	for _, d := range ev.Dets {
		if c.Detectors[d].Basis == basis {
			return true
		}
	}
	return len(ev.Obs) > 0
}

func eventDetFlagKey(ev dem.Event) string {
	ds := append([]int(nil), ev.Dets...)
	fs := append([]int(nil), ev.Flags...)
	sort.Ints(ds)
	sort.Ints(fs)
	return fmt.Sprint(ds, "|", fs)
}

// ambiguousKeys finds (dets, flags) footprints shared by events with
// different observables.
func ambiguousKeys(model *dem.Model) map[string]bool {
	byKey := map[string][][]int{}
	for _, ev := range model.Events {
		k := eventDetFlagKey(ev)
		byKey[k] = append(byKey[k], ev.Obs)
	}
	out := map[string]bool{}
	//fpnvet:orderless builds a set; membership does not depend on visit order
	for k, list := range byKey {
		for i := 1; i < len(list); i++ {
			if fmt.Sprint(list[i]) != fmt.Sprint(list[0]) {
				out[k] = true
			}
		}
	}
	return out
}
