package analysis

// Annotation directives. Comment forms let code opt in to or out of
// specific analyzers:
//
//	//fpn:hotpath              — on a function declaration: this function
//	                             is a decode hot-path root; hotalloc
//	                             walks its whole call graph.
//	//fpnvet:orderless <why>   — on (or immediately above) a statement
//	                             that ranges over a map: the loop body is
//	                             order-insensitive, so maporder skips it.
//	//fpnvet:sched <why>       — on a struct field: the field only
//	                             shapes scheduling/IO, never results, so
//	                             fingerprintcover does not require it in
//	                             the checkpoint fingerprint.
//	//fpnvet:coldpath <why>    — on a function: a sanctioned rare
//	                             fallback (BP+OSD's OSD-0) that
//	                             may allocate; hotalloc prunes its whole
//	                             subgraph.
//	//fpnvet:wallclock <why>   — on a statement or function in the fabric
//	                             or rtd packages: this clock read is pure
//	                             liveness (polling cadence, lease TTL
//	                             bookkeeping), never results; leaseguard
//	                             skips it.
//	//fpnvet:guardedby <mu>    — on a struct field: the field may only be
//	                             read or written while the named sibling
//	                             mutex is held; guardedby enforces it.
//	//fpnvet:unguarded <why>   — on a struct field of a mutex-bearing
//	                             struct: the field needs no lock
//	                             (immutable after construction, internally
//	                             synchronized, …); guardedby skips it.
//	//fpnvet:bounded <why>     — on a go statement or a loop: the spawned
//	                             goroutine (or the loop) provably
//	                             terminates for reasons goexit cannot see.
//	//fpnvet:nodeadline <why>  — on a blocking network read/write (or its
//	                             enclosing function): the wait is bounded
//	                             by something netdeadline cannot trace
//	                             (a caller's context, the serving
//	                             http.Server's timeouts).
//
// Directives are matched by file position: a trailing directive (code
// precedes it on the line) covers exactly its own line, while an
// own-line directive comment covers the line directly below it — the
// two sanctioned placements, end-of-line and above-the-statement. A
// trailing directive deliberately does not leak onto the next line, so
// annotating one struct field never silently annotates its neighbor.

import (
	"go/ast"
	"go/token"
	"strings"
)

const (
	DirHotpath    = "fpn:hotpath"
	DirOrderless  = "fpnvet:orderless"
	DirSched      = "fpnvet:sched"
	DirColdpath   = "fpnvet:coldpath"
	DirWallclock  = "fpnvet:wallclock"
	DirGuardedBy  = "fpnvet:guardedby"
	DirUnguarded  = "fpnvet:unguarded"
	DirBounded    = "fpnvet:bounded"
	DirNodeadline = "fpnvet:nodeadline"
)

// directiveNames lists every recognized directive, longest-match is not
// needed because no name is a prefix of another.
var directiveNames = []string{
	DirHotpath, DirOrderless, DirSched, DirColdpath, DirWallclock,
	DirGuardedBy, DirUnguarded, DirBounded, DirNodeadline,
}

// noteKey identifies one source line of one file.
type noteKey struct {
	file string
	line int
}

// note is one directive occurrence: its name, the argument text that
// followed it (the first word of the free-text tail — the mutex name for
// guardedby, the start of the reason for the others), and whether the
// comment trails code on its line.
type note struct {
	name     string
	arg      string
	trailing bool
}

// noteIndex maps (file, line) to the directives present there.
type noteIndex struct {
	at map[noteKey][]note
}

// indexNotes scans every comment of every loaded file for directives.
func indexNotes(prog *Program) *noteIndex {
	idx := &noteIndex{at: map[noteKey][]note{}}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			code := codeLines(prog.Fset, f)
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					name, arg, ok := parseDirective(text)
					if !ok {
						continue
					}
					pos := prog.Fset.Position(c.Slash)
					k := noteKey{file: pos.Filename, line: pos.Line}
					idx.at[k] = append(idx.at[k], note{name: name, arg: arg, trailing: code[pos.Line]})
				}
			}
		}
	}
	return idx
}

// codeLines reports which source lines of f carry non-comment tokens, so
// trailing directive comments can be told apart from own-line ones.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil:
			return false
		case *ast.Comment, *ast.CommentGroup:
			return false
		}
		lines[fset.Position(n.Pos()).Line] = true
		return true
	})
	return lines
}

// parseDirective extracts the directive identifier and its first
// argument word from a comment body, if any. Directives are machine
// comments: no space after "//".
func parseDirective(text string) (name, arg string, ok bool) {
	for _, d := range directiveNames {
		if text == d {
			return d, "", true
		}
		if rest, found := strings.CutPrefix(text, d+" "); found {
			rest = strings.TrimSpace(rest)
			if i := strings.IndexByte(rest, ' '); i >= 0 {
				rest = rest[:i]
			}
			return d, rest, true
		}
	}
	return "", "", false
}

// directiveName extracts just the directive identifier, for callers that
// do not care about arguments.
func directiveName(text string) (string, bool) {
	name, _, ok := parseDirective(text)
	return name, ok
}

// find returns the first directive with the given name attached to the
// line of file: a directive on the line itself (trailing comment), or an
// own-line directive comment on the line above.
func (idx *noteIndex) find(name, file string, line int) (note, bool) {
	for _, d := range idx.at[noteKey{file: file, line: line}] {
		if d.name == name {
			return d, true
		}
	}
	for _, d := range idx.at[noteKey{file: file, line: line - 1}] {
		if d.name == name && !d.trailing {
			return d, true
		}
	}
	return note{}, false
}

// has reports whether directive name is attached to the given line of
// file (on the line itself, e.g. a trailing comment, or the line above).
func (idx *noteIndex) has(name, file string, line int) bool {
	_, ok := idx.find(name, file, line)
	return ok
}

// HasDirective reports whether the directive is attached to the source
// line containing pos (or the line above it).
func (p *Program) HasDirective(name string, pos token.Pos) bool {
	position := p.Fset.Position(pos)
	return p.notes.has(name, position.Filename, position.Line)
}

// DirectiveArg returns the first argument word of the directive attached
// to the source line containing pos (or the line above it) — for
// guardedby, the name of the guarding mutex field. ok is false when the
// directive is absent.
func (p *Program) DirectiveArg(name string, pos token.Pos) (arg string, ok bool) {
	position := p.Fset.Position(pos)
	n, ok := p.notes.find(name, position.Filename, position.Line)
	return n.arg, ok
}

// FuncHasDirective reports whether a function declaration carries the
// directive in its doc comment or on its declaration line.
func (p *Program) FuncHasDirective(name string, fd *ast.FuncDecl) bool {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if d, ok := directiveName(strings.TrimPrefix(c.Text, "//")); ok && d == name {
				return true
			}
		}
	}
	return p.HasDirective(name, fd.Pos())
}
