package dem

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/noise"
	"github.com/fpn/flagproxy/internal/schedule"
	"github.com/fpn/flagproxy/internal/sim"
	"github.com/fpn/flagproxy/internal/surface"
)

// fault is one elementary error mechanism to inject.
type fault struct {
	inj sim.Injection
	p   float64
}

// extractForward is the reference extractor Extract must agree with bit
// for bit: it injects every fault into the deterministic frame simulator
// (64 faults per pass), reads each lane's detector and observable bits,
// and merges identical footprints in forward fault order.
func extractForward(c *circuit.Circuit) (*Model, error) {
	var faults []fault
	measBase := 0
	for oi, op := range c.Ops {
		switch op.Kind {
		case circuit.OpPauli1:
			for _, q := range op.Qubits {
				if op.PX > 0 {
					faults = append(faults, fault{sim.Injection{OpIndex: oi, Paulis: []sim.Pauli{{Qubit: q, X: true}}}, op.PX})
				}
				if op.PY > 0 {
					faults = append(faults, fault{sim.Injection{OpIndex: oi, Paulis: []sim.Pauli{{Qubit: q, X: true, Z: true}}}, op.PY})
				}
				if op.PZ > 0 {
					faults = append(faults, fault{sim.Injection{OpIndex: oi, Paulis: []sim.Pauli{{Qubit: q, Z: true}}}, op.PZ})
				}
			}
		case circuit.OpDepol1:
			if op.P > 0 {
				for _, q := range op.Qubits {
					for idx := 1; idx <= 3; idx++ {
						faults = append(faults, fault{sim.Injection{OpIndex: oi, Paulis: pauliFromIndex(q, idx)}, op.P / 3})
					}
				}
			}
		case circuit.OpDepol2:
			if op.P > 0 {
				for _, pr := range op.Pairs {
					for k := 1; k <= 15; k++ {
						var ps []sim.Pauli
						ps = append(ps, pauliFromIndex(pr[0], k/4)...)
						ps = append(ps, pauliFromIndex(pr[1], k%4)...)
						faults = append(faults, fault{sim.Injection{OpIndex: oi, Paulis: ps}, op.P / 15})
					}
				}
			}
		case circuit.OpXFlip:
			if op.P > 0 {
				for _, q := range op.Qubits {
					faults = append(faults, fault{sim.Injection{OpIndex: oi, Paulis: []sim.Pauli{{Qubit: q, X: true}}}, op.P})
				}
			}
		case circuit.OpMR, circuit.OpM:
			if op.FlipProb > 0 {
				for i := range op.Qubits {
					faults = append(faults, fault{sim.Injection{IsMeasFlip: true, FlipMeas: measBase + i}, op.FlipProb})
				}
			}
		}
		if op.Kind == circuit.OpMR || op.Kind == circuit.OpM {
			measBase += len(op.Qubits)
		}
	}
	merged := map[string]*Event{}
	for start := 0; start < len(faults); start += 64 {
		end := start + 64
		if end > len(faults) {
			end = len(faults)
		}
		batch := faults[start:end]
		inj := make([]sim.Injection, len(batch))
		for i, f := range batch {
			inj[i] = f.inj
			inj[i].Lane = i
		}
		res := sim.RunDeterministic(c, len(batch), inj)
		for i, f := range batch {
			var dets, flags, obs []int
			for d := range c.Detectors {
				if res.DetectorBit(d, i) {
					if c.Detectors[d].IsFlag {
						flags = append(flags, d)
					} else {
						dets = append(dets, d)
					}
				}
			}
			for o := range c.Observables {
				if res.ObservableBit(o, i) {
					obs = append(obs, o)
				}
			}
			if len(dets) == 0 && len(flags) == 0 {
				if len(obs) > 0 {
					return nil, fmt.Errorf("dem: undetectable fault flips an observable (distance 1 circuit)")
				}
				continue
			}
			key := footprintKey(dets, flags, obs)
			if ev, ok := merged[key]; ok {
				ev.P = ev.P*(1-f.p) + f.p*(1-ev.P)
			} else {
				merged[key] = &Event{Dets: dets, Flags: flags, Obs: obs, P: f.p}
			}
		}
	}
	m := &Model{Circuit: c}
	keys := make([]string, 0, len(merged))
	//fpnvet:orderless collect-then-sort: keys are sorted before emission
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m.Events = append(m.Events, *merged[k])
	}
	return m, nil
}

func pauliFromIndex(q, idx int) []sim.Pauli {
	switch idx {
	case 1:
		return []sim.Pauli{{Qubit: q, X: true}}
	case 2:
		return []sim.Pauli{{Qubit: q, X: true, Z: true}}
	case 3:
		return []sim.Pauli{{Qubit: q, Z: true}}
	}
	return nil
}

// sameModel checks that Extract and the forward reference agree on c:
// the same error, or the same events with bit-identical probabilities.
func sameModel(c *circuit.Circuit) error {
	got, gerr := Extract(c)
	want, werr := extractForward(c)
	if gerr != nil || werr != nil {
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			return fmt.Errorf("errors differ: got %v, reference %v", gerr, werr)
		}
		return nil
	}
	if len(got.Events) != len(want.Events) {
		return fmt.Errorf("%d events, reference %d", len(got.Events), len(want.Events))
	}
	for i, g := range got.Events {
		r := want.Events[i]
		if !reflect.DeepEqual(g.Dets, r.Dets) || !reflect.DeepEqual(g.Flags, r.Flags) || !reflect.DeepEqual(g.Obs, r.Obs) {
			return fmt.Errorf("event %d footprint %v|%v|%v, reference %v|%v|%v", i, g.Dets, g.Flags, g.Obs, r.Dets, r.Flags, r.Obs)
		}
		if math.Float64bits(g.P) != math.Float64bits(r.P) {
			return fmt.Errorf("event %d P = %v, reference %v", i, g.P, r.P)
		}
	}
	return nil
}

func plannedCircuit(t *testing.T, s *schedule.Schedule, basis css.Basis, rounds int, nm *noise.Model) *circuit.Circuit {
	t.Helper()
	plan, err := schedule.BuildRoundPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	var c *circuit.Circuit
	if rounds == 0 {
		c, err = circuit.BuildCodeCapacity(plan, basis, nm.P)
	} else {
		c, err = circuit.BuildMemory(circuit.MemorySpec{Plan: plan, Basis: basis, Rounds: rounds, Noise: nm})
	}
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func greedySchedule(t *testing.T, code *css.Code, opt fpn.Options) *schedule.Schedule {
	t.Helper()
	net, err := fpn.Build(code, opt)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Greedy(net)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// namedCircuit is one circuit of the reference tests.
type namedCircuit struct {
	name string
	c    *circuit.Circuit
}

// referenceCircuits returns the circuits the experiments build: rotated
// d=3/5/7 under the canonical schedule and as an FPN, the [[30,8,3,3]]
// hyperbolic FPN, both memory bases (Z only at d=7), two noise
// strengths, both idle models, and code capacity.
func referenceCircuits(t *testing.T) []namedCircuit {
	t.Helper()
	fpnOpt := fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}
	type family struct {
		name      string
		schedules map[string]*schedule.Schedule
		direct    *schedule.Schedule // flag-free, for code capacity
		rounds    int
		bases     []css.Basis
	}
	var fams []family
	for _, d := range []int{3, 5, 7} {
		l, err := surface.Rotated(d)
		if err != nil {
			t.Fatal(err)
		}
		canon, _, err := schedule.CanonicalRotated(l)
		if err != nil {
			t.Fatal(err)
		}
		bases := []css.Basis{css.Z, css.X}
		if d == 7 {
			bases = bases[:1] // the forward reference is slow at d=7
		}
		fams = append(fams, family{
			name:      fmt.Sprintf("rotated-d%d", d),
			schedules: map[string]*schedule.Schedule{"canonical": canon, "fpn": greedySchedule(t, l.Code, fpnOpt)},
			direct:    canon,
			rounds:    d,
			bases:     bases,
		})
	}
	hyper := hyper55(t)
	fams = append(fams, family{
		name:      "hyper55",
		schedules: map[string]*schedule.Schedule{"fpn": greedySchedule(t, hyper, fpnOpt)},
		direct:    greedySchedule(t, hyper, fpn.Options{}),
		rounds:    3,
		bases:     []css.Basis{css.Z, css.X},
	})
	var out []namedCircuit
	for _, fam := range fams {
		for _, basis := range fam.bases {
			for _, p := range []float64{1e-3, 5e-3} {
				for _, sname := range []string{"canonical", "fpn"} {
					s, ok := fam.schedules[sname]
					if !ok {
						continue
					}
					for _, fixed := range []bool{false, true} {
						out = append(out, namedCircuit{
							fmt.Sprintf("%s %s basis=%v p=%g fixedIdle=%v", fam.name, sname, basis, p, fixed),
							plannedCircuit(t, s, basis, fam.rounds, &noise.Model{P: p, FixedIdle: fixed}),
						})
					}
				}
				out = append(out, namedCircuit{
					fmt.Sprintf("%s code capacity basis=%v p=%g", fam.name, basis, p),
					plannedCircuit(t, fam.direct, basis, 0, &noise.Model{P: p}),
				})
			}
		}
	}
	return out
}

// TestExtractMatchesForwardReference holds the backward extractor to the
// forward reference on referenceCircuits.
func TestExtractMatchesForwardReference(t *testing.T) {
	for _, nc := range referenceCircuits(t) {
		if err := sameModel(nc.c); err != nil {
			t.Errorf("%s: %v", nc.name, err)
		}
	}
}

// fuzzProbs are the rates fuzzed circuits draw from: distinct values, so
// that merged footprints exercise the fold order.
var fuzzProbs = [...]float64{0, 0.001, 0.01, 0.05, 0.1, 0.2, 1.0 / 3, 0.5}

// fuzzCircuit decodes bytes into a small circuit of up to five qubits
// using every op kind, including shapes the memory builder never emits:
// mid-circuit M followed by gates on the same qubit, CX pairs sharing a
// qubit within one layer, repeated qubits in one layer, detectors that
// list a measurement twice, and several observables.
func fuzzCircuit(data []byte) *circuit.Circuit {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	c := &circuit.Circuit{NumQubits: 1 + next()%5}
	qubit := func() int { return next() % c.NumQubits }
	qubits := func() []int {
		qs := make([]int, 1+next()%3)
		for i := range qs {
			qs[i] = qubit()
		}
		return qs
	}
	pairs := func() [][2]int {
		ps := make([][2]int, 1+next()%3)
		for i := range ps {
			a := qubit()
			ps[i] = [2]int{a, (a + 1 + next()%(c.NumQubits-1)) % c.NumQubits}
		}
		return ps
	}
	prob := func() float64 { return fuzzProbs[next()%len(fuzzProbs)] }
	for nops := next() % 24; nops > 0 && len(data) > 0; nops-- {
		op := circuit.Op{Kind: circuit.OpKind(next() % 9)}
		switch op.Kind {
		case circuit.OpCX, circuit.OpDepol2:
			if c.NumQubits < 2 {
				continue
			}
			op.Pairs = pairs()
		default:
			op.Qubits = qubits()
		}
		switch op.Kind {
		case circuit.OpMR, circuit.OpM:
			op.FlipProb = prob()
		case circuit.OpPauli1:
			op.PX, op.PY, op.PZ = prob(), prob(), prob()
		case circuit.OpDepol1, circuit.OpDepol2, circuit.OpXFlip:
			op.P = prob()
		}
		c.AddOp(op)
	}
	if c.NumMeas == 0 {
		return c
	}
	meas := func() []int {
		ms := make([]int, 1+next()%3)
		for i := range ms {
			ms[i] = next() % c.NumMeas
		}
		return ms
	}
	for n := next() % 6; n > 0; n-- {
		// Alternate bases, so that projection onto either one keeps some.
		basis := [2]css.Basis{css.Z, css.X}[len(c.Detectors)%2]
		c.Detectors = append(c.Detectors, circuit.Detector{Meas: meas(), IsFlag: next()%2 == 1, Basis: basis})
	}
	for n := next() % 3; n > 0; n-- {
		c.Observables = append(c.Observables, meas())
	}
	return c
}

// FuzzExtractMatchesForward compares the two extractors on arbitrary
// small circuits: the same model, or an error from both. Projection onto
// either basis and the classes of each projection must match their
// map-based references too.
func FuzzExtractMatchesForward(f *testing.F) {
	// An X fault before a mid-circuit M whose qubit then controls a CX
	// and is measured again; an H; a flag; two observables.
	f.Add([]byte{1, 5, 8, 0, 0, 2, 4, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 4, 1, 0, 1, 0, 2, 0, 0, 0, 0, 2, 1, 2, 0, 1, 1, 0, 2})
	// The same circuit with a footprint only the observables see: both
	// extractors must fail.
	f.Add([]byte{1, 5, 8, 0, 0, 2, 4, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 4, 1, 0, 1, 0, 2, 1, 0, 1, 0, 0, 2, 1, 2, 0, 1, 1, 0, 2})
	// One CX layer chaining 0→1→2: the pairs share qubit 1.
	f.Add([]byte{2, 3, 8, 0, 0, 3, 0, 1, 0, 0, 1, 0, 4, 2, 0, 1, 2, 0, 3, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0})
	// Depol1, Pauli1, Depol2, Reset, XFlip, MR and M; a detector listing
	// measurement 3 twice.
	f.Add([]byte{2, 7, 6, 0, 0, 3, 5, 0, 1, 1, 2, 3, 7, 0, 0, 1, 4, 2, 0, 2, 8, 0, 2, 1, 3, 2, 0, 1, 2, 1, 4, 2, 0, 1, 2, 2, 4, 1, 0, 3, 0, 1, 1, 4, 0, 1, 2, 5, 1, 2, 3, 3, 0, 0, 1, 1, 0, 3})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 64)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzCircuit(data)
		if err := sameModel(c); err != nil {
			t.Fatal(err)
		}
		if m, err := Extract(c); err == nil {
			if err := sameProjection(m); err != nil {
				t.Fatal(err)
			}
		}
	})
}
