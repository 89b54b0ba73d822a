// Wire codec for experiment.Config. The coordinator publishes the
// sweep point as plain JSON and every worker rebuilds the exact same
// Config from it — same code object graph, same schedule, same
// fingerprint. Rather than serializing the schedule's full window/phase
// structure, the wire carries how to reconstruct it (the canonical
// rotated-surface distance, or "greedy" implicitly), and the
// coordinator proves the codec faithful per point by round-tripping its
// own config and comparing fingerprints before any lease is granted;
// the worker then re-verifies the fingerprint it derives against the
// coordinator's, so engine drift between binaries is caught before a
// single block is decoded, never after.
package fabric

import (
	"fmt"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/experiment"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/schedule"
	"github.com/fpn/flagproxy/internal/surface"
)

// WireCheck mirrors css.Check with a JSON-stable basis encoding.
type WireCheck struct {
	Basis   string `json:"basis"` // "X" or "Z"
	Support []int  `json:"support"`
	Color   int    `json:"color"`
}

// WireCode mirrors the identity-bearing fields of css.Code. K and the
// logical operator bases are deliberately omitted: css.New recomputes
// them deterministically from the checks, so they cannot drift from the
// stabilizer structure in transit.
type WireCode struct {
	Name    string      `json:"name"`
	Family  string      `json:"family"`
	N       int         `json:"n"`
	Checks  []WireCheck `json:"checks"`
	DX      int         `json:"dx"`
	DZ      int         `json:"dz"`
	DXExact bool        `json:"dx_exact"`
	DZExact bool        `json:"dz_exact"`
}

// WireConfig is the JSON shard-plan form of an experiment.Config: every
// result-affecting field, plus how to rebuild the schedule. Scheduling
// knobs (Workers, ShardShots, Fallback, DecodeTimeout) and runtime
// hooks (Resume, OnCommit, WrapDecoder) never cross the wire — shard
// placement is the coordinator's job and per-block counts are
// independent of it.
type WireConfig struct {
	Code         WireCode    `json:"code"`
	Arch         fpn.Options `json:"arch"`
	Basis        string      `json:"basis"`
	Rounds       int         `json:"rounds"` // verbatim, pre-normalization: it feeds the fingerprint
	P            float64     `json:"p"`
	Shots        int         `json:"shots"`
	Seed         int64       `json:"seed"`
	Decoder      string      `json:"decoder"`
	CodeCapacity bool        `json:"code_capacity,omitempty"`
	FixedIdle    bool        `json:"fixed_idle,omitempty"`
	TargetErrors int         `json:"target_errors,omitempty"`
	MaxCI        float64     `json:"max_ci,omitempty"`
	// CanonicalRotatedD, when > 0, says the run uses the canonical
	// rotated-surface-code schedule of that distance (the only override
	// schedule production sweeps use); 0 means the greedy scheduler.
	CanonicalRotatedD int `json:"canonical_rotated_d,omitempty"`
}

// MarshalConfig converts cfg to its wire form. Configs carrying
// in-process-only hooks (WrapDecoder) or a non-canonical override
// schedule cannot cross the wire; the caller's round-trip fingerprint
// check catches the latter.
func MarshalConfig(cfg experiment.Config) (*WireConfig, error) {
	if cfg.Code == nil {
		return nil, fmt.Errorf("fabric: Config.Code is nil")
	}
	if cfg.WrapDecoder != nil {
		return nil, fmt.Errorf("fabric: Config.WrapDecoder cannot cross the wire; fault injection is per-process")
	}
	w := &WireConfig{
		Arch: cfg.Arch, Basis: string(cfg.Basis), Rounds: cfg.Rounds,
		P: cfg.P, Shots: cfg.Shots, Seed: cfg.Seed, Decoder: cfg.Decoder.String(),
		CodeCapacity: cfg.CodeCapacity, FixedIdle: cfg.FixedIdle,
		TargetErrors: cfg.TargetErrors, MaxCI: cfg.MaxCI,
	}
	code := cfg.Code
	w.Code = WireCode{
		Name: code.Name, Family: code.Family, N: code.N,
		DX: code.DX, DZ: code.DZ, DXExact: code.DXExact, DZExact: code.DZExact,
		Checks: make([]WireCheck, len(code.Checks)),
	}
	for i, c := range code.Checks {
		w.Code.Checks[i] = WireCheck{Basis: string(c.Basis), Support: c.Support, Color: c.Color}
	}
	if cfg.Schedule != nil {
		// The only override schedule sweeps use is the canonical rotated
		// ordering, reconstructible from the code distance alone. A
		// different override will fail the caller's round-trip
		// fingerprint check rather than run with the wrong circuit.
		w.CanonicalRotatedD = code.DX
	}
	return w, nil
}

// Config rebuilds the experiment.Config the wire form describes.
// Rounds is NOT normalized here: the fingerprint hashes the
// pre-normalization value, and normalization belongs to the engine.
func (w *WireConfig) Config() (experiment.Config, error) {
	var cfg experiment.Config
	// The stable names, not the iota values, cross the wire.
	dec, err := experiment.ParseDecoderKind(w.Decoder)
	if err != nil {
		return cfg, fmt.Errorf("fabric: %w", err)
	}
	if len(w.Basis) != 1 || (w.Basis != "X" && w.Basis != "Z") {
		return cfg, fmt.Errorf("fabric: bad basis %q", w.Basis)
	}
	cfg = experiment.Config{
		Arch: w.Arch, Basis: css.Basis(w.Basis[0]), Rounds: w.Rounds,
		P: w.P, Shots: w.Shots, Seed: w.Seed, Decoder: dec,
		CodeCapacity: w.CodeCapacity, FixedIdle: w.FixedIdle,
		TargetErrors: w.TargetErrors, MaxCI: w.MaxCI,
	}
	if w.CanonicalRotatedD > 0 {
		l, err := surface.Rotated(w.CanonicalRotatedD)
		if err != nil {
			return cfg, fmt.Errorf("fabric: rebuild rotated d=%d: %w", w.CanonicalRotatedD, err)
		}
		s, _, err := schedule.CanonicalRotated(l)
		if err != nil {
			return cfg, fmt.Errorf("fabric: rebuild canonical schedule d=%d: %w", w.CanonicalRotatedD, err)
		}
		cfg.Code, cfg.Schedule = l.Code, s
		return cfg, nil
	}
	checks := make([]css.Check, len(w.Code.Checks))
	for i, c := range w.Code.Checks {
		if len(c.Basis) != 1 {
			return cfg, fmt.Errorf("fabric: check %d has bad basis %q", i, c.Basis)
		}
		checks[i] = css.Check{Basis: css.Basis(c.Basis[0]), Support: c.Support, Color: c.Color}
	}
	code, err := css.New(w.Code.Name, w.Code.Family, w.Code.N, checks)
	if err != nil {
		return cfg, fmt.Errorf("fabric: rebuild code: %w", err)
	}
	code.DX, code.DZ = w.Code.DX, w.Code.DZ
	code.DXExact, code.DZExact = w.Code.DXExact, w.Code.DZExact
	cfg.Code = code
	return cfg, nil
}
