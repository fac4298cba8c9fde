// Package analysis is a small, dependency-free static-analysis framework
// modelled on golang.org/x/tools/go/analysis. The repository's determinism
// and concurrency invariants are machine-checked by analyzers built on it
// (see the sibling packages nodeterminism, seedflow, paniccheck, and
// lockcheck) and run by cmd/amoeba-vet.
//
// The framework exists because the reproduction must stay buildable from
// the standard library alone: the x/tools module is not vendored, so the
// Analyzer/Pass/Diagnostic surface is re-implemented here on go/ast,
// go/parser, and go/types. The shape is kept deliberately close to
// x/tools so analyzers could migrate with little churn if the dependency
// ever becomes available.
//
// # Suppressing findings
//
// A finding can be suppressed with an annotation comment on the same line
// or the line directly above the flagged site:
//
//	//amoeba:allow <analyzer> <reason>
//
// e.g. //amoeba:allow paniccheck index verified by caller. The reason is
// mandatory by convention (amoeba-vet does not enforce it) so that every
// suppression documents why the invariant does not apply.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //amoeba:allow annotations.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Diagnostic is one finding, positioned in the file set of the pass
// that produced it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Via is the call chain (outermost first) that led a call-graph
	// walker from an annotated root to the flagged site, when the
	// analyzer tracks one. Empty for site-local findings. The chain is
	// already rendered into Message for human output; it is carried
	// separately so machine-readable consumers (amoeba-vet -json) need
	// not re-parse it.
	Via []string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// A Pass provides one analyzer run with a single type-checked package and
// collects the diagnostics it reports.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Deps looks up an already-loaded dependency package by import path,
	// giving analyzers access to the syntax (and hence annotations) of the
	// packages this one imports. Nil when the runner provides no loader.
	Deps func(path string) (*Package, bool)

	// Audit asks analyzers to probe suppressed territory instead of
	// honouring it: shardsafe walks past //amoeba:shardsafe boundaries to
	// test whether the marker still shields anything. Used by the
	// amoeba-vet -stale driver; diagnostics reported in audit mode are
	// discarded, only the used-annotation set matters.
	Audit bool

	diags    []Diagnostic
	reported map[string]bool              // analyzer+pos+message dedup
	allows   map[string]map[int][]allowAt // filename -> line -> covering annotations
	used     map[token.Pos]bool           // annotation comments that suppressed (or still shield) a finding
}

// allowAt is one //amoeba:allow annotation projected onto a line it
// covers: the suppressed analyzer name plus the comment's own position,
// recorded so the -stale audit can tell live annotations from dead ones.
type allowAt struct {
	name string
	pos  token.Pos
}

// Reportf records a finding at pos unless an //amoeba:allow annotation
// covering pos names this analyzer. Exact duplicates (same analyzer,
// position, and message — e.g. one callback registered twice) collapse
// to a single diagnostic.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportfVia(pos, nil, format, args...)
}

// ReportfVia is Reportf carrying the call chain that reached pos, for
// analyzers that walk call graphs. Deduplication still keys on the
// rendered message alone, so two chains producing the same text collapse
// and the first chain wins.
func (p *Pass) ReportfVia(pos token.Pos, via []string, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowedAt(position, p.Analyzer.Name) {
		return
	}
	d := Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
		Via:      via,
	}
	key := d.String()
	if p.reported == nil {
		p.reported = make(map[string]bool)
	}
	if p.reported[key] {
		return
	}
	p.reported[key] = true
	p.diags = append(p.diags, d)
}

// AllowedAt reports whether an //amoeba:allow annotation naming name (or
// "all") covers pos. Analyzers that accept alternative annotation names
// (paniccheck also honours //amoeba:allow panic) can query extra names
// before reporting.
func (p *Pass) AllowedAt(pos token.Pos, name string) bool {
	return p.allowedAt(p.Fset.Position(pos), name)
}

func (p *Pass) allowedAt(pos token.Position, name string) bool {
	if p.allows == nil {
		p.allows = make(map[string]map[int][]allowAt)
		for _, f := range p.Files {
			p.allows[p.Fset.Position(f.Pos()).Filename] = allowLines(p.Fset, f)
		}
	}
	for _, a := range p.allows[pos.Filename][pos.Line] {
		if a.name == name || a.name == "all" {
			p.UseAnnotation(a.pos)
			return true
		}
	}
	return false
}

// allowLines indexes a file's //amoeba:allow annotations by the lines
// they cover: their own line (trailing comment) and the next line
// (comment-above form).
func allowLines(fset *token.FileSet, f *ast.File) map[int][]allowAt {
	lines := make(map[int][]allowAt)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			name, _, ok := ParseAllow(c.Text)
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			at := allowAt{name: name, pos: c.Pos()}
			lines[line] = append(lines[line], at)
			lines[line+1] = append(lines[line+1], at)
		}
	}
	return lines
}

// UseAnnotation records that the suppression annotation whose comment
// starts at pos suppressed — or, in audit mode, still shields — a
// finding. The -stale driver subtracts the used set from the annotation
// inventory; whatever remains no longer suppresses anything.
func (p *Pass) UseAnnotation(pos token.Pos) {
	if p.used == nil {
		p.used = make(map[token.Pos]bool)
	}
	p.used[pos] = true
}

// UsedAnnotations returns the positions of every annotation recorded by
// UseAnnotation, resolved through the pass's file set.
func (p *Pass) UsedAnnotations() []token.Position {
	out := make([]token.Position, 0, len(p.used))
	for pos := range p.used {
		out = append(out, p.Fset.Position(pos))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Filename != out[j].Filename {
			return out[i].Filename < out[j].Filename
		}
		return out[i].Offset < out[j].Offset
	})
	return out
}

// ParseAllow parses an //amoeba:allow comment into the suppressed
// analyzer name and the justification that follows it. The reason is
// empty when the annotation names an analyzer but gives no justification
// (amoeba-vet -suppressions treats that as an error). The marker follows
// the exact-prefix rule: //amoeba:allowalloc(...) is its own annotation,
// not an allow of an analyzer named "alloc(...".
func ParseAllow(text string) (name, reason string, ok bool) {
	body, found := strings.CutPrefix(text, "//amoeba:allow")
	if !found {
		return "", "", false
	}
	if body != "" && body[0] != ' ' && body[0] != '\t' {
		return "", "", false
	}
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return "", "", false
	}
	return fields[0], strings.Join(fields[1:], " "), true
}

// Diagnostics returns the findings reported so far, sorted by position.
func (p *Pass) Diagnostics() []Diagnostic {
	sortDiagnostics(p.diags)
	return p.diags
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// IsNamed reports whether t (after unwrapping aliases) is the named type
// pkgSuffix.name, where pkgSuffix is matched against the end of the
// defining package's import path (so "internal/sim".RNG matches both the
// real module path and analyzer-test stubs).
func IsNamed(t types.Type, pkgSuffix, name string) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == pkgSuffix || strings.HasSuffix(p, "/"+pkgSuffix)
}

// PkgFunc resolves a call expression to a package-level function and
// returns its package path and name ("", "" when the callee is anything
// else: a method, builtin, conversion, or local closure).
func PkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	if _, ok := info.Uses[id].(*types.PkgName); !ok {
		return "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// Method resolves a call expression to a method and returns the defining
// package path, receiver type name, and method name ("", "", "" for
// non-method callees). Promoted methods resolve to the embedded type that
// declares them, so a Lock call through an embedded sync.Mutex still
// reports ("sync", "Mutex", "Lock").
func Method(info *types.Info, call *ast.CallExpr) (pkgPath, recvType, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", "", ""
	}
	rt := sig.Recv().Type()
	if ptr, ok := types.Unalias(rt).(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := types.Unalias(rt).(*types.Named)
	if !ok {
		return "", "", ""
	}
	return fn.Pkg().Path(), named.Obj().Name(), fn.Name()
}
