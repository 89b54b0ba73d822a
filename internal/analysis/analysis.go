// Package analysis is fpnvet's driver: a small, stdlib-only static
// analysis framework that loads and type-checks this module's packages
// and runs repo-specific analyzers over them. It exists because the
// repository's core guarantees — deterministic replay from one seed,
// allocation-free decode hot paths, checkpoint keys that cover every
// physics knob — are invariants of the *code shape*, not of any single
// test vector, so they are enforced mechanically here and wired into CI
// through cmd/fpnvet.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Analyzer is one named check run over every loaded package.
type Analyzer struct {
	// Name is the short identifier printed in findings, e.g. "detrand".
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports findings for one package through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	diags *[]Diagnostic
}

// Fset returns the program-wide file set.
func (p *Pass) Fset() *token.FileSet { return p.Prog.Fset }

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical file:line: [analyzer]
// message form the CI job greps for.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package of the program and
// returns the findings sorted by position.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range prog.Packages {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	// Program-walking analyzers (hotalloc) may reach the same function
	// from roots in different packages; keep one copy of each finding.
	seen := map[Diagnostic]bool{}
	uniq := diags[:0]
	for _, d := range diags {
		if !seen[d] {
			seen[d] = true
			uniq = append(uniq, d)
		}
	}
	diags = uniq
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// resultAffecting lists the package basenames whose output feeds
// simulation results, catalog contents, or decode corrections. The
// determinism analyzers (detrand, maporder) only police these; harness
// code (cmd wiring, checkpoint I/O, reporting) may use maps and clocks
// freely as long as it never feeds values back into the physics.
var resultAffecting = map[string]bool{
	"sim":        true,
	"experiment": true,
	"decoder":    true,
	"dem":        true,
	"catalog":    true,
	"tiling":     true,
	"group":      true,
	"fabric":     true,
	"rtd":        true,
	"frame":      true,
}

// ResultAffecting reports whether pkg is one of the packages whose
// behavior must be bit-reproducible from a seed.
func ResultAffecting(pkg *Package) bool { return resultAffecting[pkg.Name] }
