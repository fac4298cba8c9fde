// Package alloccheck statically screens //amoeba:noalloc functions for
// allocation-inducing constructs. The kernel's allocation contracts (the
// event slab, the guarded telemetry emit, the arrival closure) are
// asserted at runtime by testing.AllocsPerRun — but a refactor that
// boxes an interface or captures a fresh closure regresses silently
// until the bench job happens to run. This analyzer makes the contract a
// build-time property: every construct the compiler might lower to a
// heap allocation is flagged inside an annotated function.
//
// Flagged constructs:
//
//   - make of a slice, map, or channel, and new of anything
//   - append (backing-array growth; pre-sized amortised growth is the
//     one legitimate case, annotated //amoeba:allowalloc(reason))
//   - &T{...} composite literals (escape to the heap unless proven
//     otherwise, which no local analysis can)
//   - function literals capturing enclosing variables (captured
//     closures allocate when they escape)
//   - interface boxing: a non-pointer-shaped value passed to an
//     interface parameter or converted to an interface type
//   - string concatenation and allocating string conversions
//     (string<->[]byte/[]rune, string(rune))
//   - any call into fmt or log (formatting boxes and builds strings)
//
// Constructs inside the argument list of a builtin panic call are
// exempt: panic paths fire once and abort, they are not steady state.
// Function literals are flagged at the literal (the capture is the
// allocation) and their bodies are not re-scanned — a nested literal is
// a distinct function with its own contract.
//
// What this proves — and does not. alloccheck is a syntactic
// over-approximation of the compiler's escape analysis: it cannot see
// that a non-escaping &T{} stays on the stack, and it cannot see an
// allocation hidden behind a call into another function (the hotpath
// analyzer and the AllocsPerRun assertions cover the transitive half).
// A finding therefore means "justify or restructure", enforced via
// //amoeba:allowalloc(reason), never "the compiler will allocate here".
package alloccheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"amoeba/internal/analysis"
)

// Analyzer flags allocation-inducing constructs in functions annotated
// //amoeba:noalloc.
var Analyzer = &analysis.Analyzer{
	Name: "alloccheck",
	Doc: "//amoeba:noalloc functions must not contain allocation-inducing constructs " +
		"(make/new/append, escaping composites, capturing closures, interface boxing, " +
		"string building, fmt/log); annotate deliberate ones //amoeba:allowalloc(reason)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		allowed := allowAllocLines(pass.Fset, f)
		for _, fd := range analysis.MarkedFuncs(pass.Fset, f, analysis.AnnotNoAlloc) {
			if fd.Body == nil {
				continue
			}
			c := &checker{pass: pass, fn: analysis.DeclName(fd), allowed: allowed}
			c.scan(fd.Body)
		}
	}
	return nil
}

// allowAllocLines maps each line covered by an //amoeba:allowalloc
// annotation (its own line and the next, mirroring //amoeba:allow) to
// the annotation comment's position, so a suppression can be credited
// to the annotation that performed it (the -stale audit's used set).
func allowAllocLines(fset *token.FileSet, f *ast.File) map[int]token.Pos {
	lines := make(map[int]token.Pos)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if _, ok := analysis.ParseAllowAlloc(c.Text); ok {
				line := fset.Position(c.Pos()).Line
				lines[line] = c.Pos()
				lines[line+1] = c.Pos()
			}
		}
	}
	return lines
}

type checker struct {
	pass    *analysis.Pass
	fn      string
	allowed map[int]token.Pos
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if apos, ok := c.allowed[c.pass.Fset.Position(pos).Line]; ok {
		c.pass.UseAnnotation(apos)
		return
	}
	args = append(args, c.fn)
	c.pass.Reportf(pos, format+" in //amoeba:noalloc function %s: hoist it to setup, "+
		"restructure, or annotate //amoeba:allowalloc(reason)", args...)
}

// scan walks one node of the annotated function's body.
func (c *checker) scan(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			return c.checkCall(n)
		case *ast.FuncLit:
			if v := c.capturedVar(n); v != "" {
				c.report(n.Pos(), "function literal capturing %q may allocate its closure", v)
			}
			return false // a nested literal is a separate function
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					c.report(n.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && c.isString(n.X) {
				c.report(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && c.isString(n.Lhs[0]) {
				c.report(n.Pos(), "string concatenation allocates")
			}
		}
		return true
	})
}

// checkCall classifies one call expression; it reports findings and
// returns whether Inspect should descend into the children.
func (c *checker) checkCall(call *ast.CallExpr) bool {
	info := c.pass.TypesInfo
	// Builtins: make/new/append allocate; panic's arguments are cold.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "panic":
				return false // panic path: fires once, aborts — not steady state
			case "make":
				c.report(call.Pos(), "make allocates")
			case "new":
				c.report(call.Pos(), "new allocates")
			case "append":
				c.report(call.Pos(), "append may grow its backing array")
			}
			return true
		}
	}
	// Conversion T(x)?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		c.checkConversion(call, tv.Type)
		return true
	}
	// Real call: flag fmt/log wholesale, then boxing at the arguments.
	if pkg, _ := analysis.PkgFunc(info, call); pkg == "fmt" || pkg == "log" {
		c.report(call.Pos(), "call into %s formats and boxes", pkg)
		return true
	}
	c.checkBoxing(call)
	return true
}

// checkConversion flags conversions whose result needs fresh backing
// memory or an interface box.
func (c *checker) checkConversion(call *ast.CallExpr, target types.Type) {
	info := c.pass.TypesInfo
	src := info.Types[call.Args[0]].Type
	if src == nil {
		return
	}
	tu, su := types.Unalias(target).Underlying(), types.Unalias(src).Underlying()
	if types.IsInterface(tu) {
		if !pointerShaped(su) && !types.IsInterface(su) {
			c.report(call.Pos(), "conversion to interface %s boxes", types.TypeString(target, nil))
		}
		return
	}
	tb, tIsBasic := tu.(*types.Basic)
	sb, sIsBasic := su.(*types.Basic)
	switch {
	case tIsBasic && tb.Info()&types.IsString != 0:
		if _, fromSlice := su.(*types.Slice); fromSlice {
			c.report(call.Pos(), "string conversion copies")
		} else if sIsBasic && sb.Info()&types.IsInteger != 0 {
			c.report(call.Pos(), "string(rune) conversion allocates")
		}
	case isByteOrRuneSlice(tu):
		if sIsBasic && sb.Info()&types.IsString != 0 {
			c.report(call.Pos(), "string conversion copies")
		}
	}
}

// checkBoxing flags non-pointer-shaped arguments passed to interface
// parameters.
func (c *checker) checkBoxing(call *ast.CallExpr) {
	info := c.pass.TypesInfo
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := types.Unalias(tv.Type).Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice: no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || isNil(info, arg) {
			continue
		}
		au := types.Unalias(at).Underlying()
		if types.IsInterface(au) || pointerShaped(au) {
			continue
		}
		c.report(arg.Pos(), "argument boxes %s into interface parameter",
			types.TypeString(at, nil))
	}
}

// capturedVar returns the name of one variable the literal captures from
// its enclosing function ("" when it captures nothing heap-worthy).
// Package-level variables are shared, not captured.
func (c *checker) capturedVar(lit *ast.FuncLit) string {
	info, pkgScope := c.pass.TypesInfo, c.pass.Pkg.Scope()
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil || v.Parent() == pkgScope || v.Parent().Parent() == types.Universe {
			return true // package-level or universe: shared, not captured
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = v.Name()
			return false
		}
		return true
	})
	return captured
}

func (c *checker) isString(e ast.Expr) bool {
	t := c.pass.TypesInfo.Types[e].Type
	if t == nil {
		return false
	}
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

// isByteOrRuneSlice reports whether the underlying type is []byte or
// []rune, the two slice targets of allocating string conversions.
func isByteOrRuneSlice(u types.Type) bool {
	sl, ok := u.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := types.Unalias(sl.Elem()).Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports whether values of the (underlying) type fit in
// one pointer word, so boxing them into an interface needs no heap copy.
func pointerShaped(u types.Type) bool {
	switch u.(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	if b, ok := u.(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return true
	}
	return false
}
