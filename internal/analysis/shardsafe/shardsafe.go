// Package shardsafe certifies the shard-isolation model of the parallel
// sweep drivers: a function annotated //amoeba:shard is one worker's run
// body, and two workers must not be able to share mutable state except
// through the channels handed to them as parameters. The analyzer walks
// the static call graph from every shard root (analysis.Walker, the walk
// hotpath uses too) and flags, in the root and in everything it
// reaches:
//
//   - writes to package-level mutable state (assignments, ++/--, and
//     in-place builtin mutation via delete/copy whose target is a
//     package-level variable) — two workers racing on a global;
//   - sends on channels not declared inside the function (a parameter,
//     the receiver, or a local make are fine; a package-level or
//     otherwise captured channel is not) — results must flow through
//     the channel the driver passed in;
//   - sync.Mutex.Lock / sync.RWMutex.Lock/RLock — a shard body needing
//     a lock means it is touching shared state; the audited escape is
//     the //amoeba:shardsafe annotation below, not an inline lock.
//
// Package-level math/rand calls are shared mutable state too, but they
// are nodeterminism's rule: it flags every one in a non-main package,
// and no shard root lives in a package main (DESIGN.md §7).
//
// A call into a function annotated //amoeba:shardsafe is trusted and not
// walked: the annotation marks an audited concurrency-safe API boundary
// (the experiments singleflight memo is the canonical example — shared
// state by design, internally synchronised, named in DESIGN.md §12). In
// audit mode (amoeba-vet -stale) the walk continues past the boundary
// just far enough to check the marker still shields a real violation;
// findings behind a live boundary are still trusted and never reported.
//
// The walk resolves every edge the shared resolver can justify:
// statically bound calls, interface dispatch devirtualized against the
// module-wide class-hierarchy index (DESIGN.md §13), calls through
// func-valued locals with a provably complete binding set, and calls
// through func-valued struct fields resolved by the module-wide
// field-flow layer (DESIGN.md §16) — dynamic edges are named in the
// chain ("via dynamic dispatch on ... => ...", "via field cell.onDrain
// => ..."), and function literals stored in fields are walked in their
// defining package's context. Standard-library internals and bindings
// the trackers abandon as tainted remain the residual gaps, backed at
// runtime by the -race suite over the same drivers. Transitive findings
// are reported at the call edge in the analyzed package with the chain
// in the message, so an //amoeba:allow shardsafe suppression can sit
// next to code the package owns; an //amoeba:allow shardsafe at the
// violating line itself — even inside a walked dependency — suppresses
// the finding for every root that reaches it.
package shardsafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"amoeba/internal/analysis"
)

// Analyzer flags shared mutable state reachable from //amoeba:shard
// worker functions.
var Analyzer = &analysis.Analyzer{
	Name: "shardsafe",
	Doc: "//amoeba:shard workers (and everything they reach) must not write package-level " +
		"state, send on non-parameter channels, or lock mutexes; " +
		"audited shared APIs are annotated //amoeba:shardsafe",
	Run: run,
}

func run(pass *analysis.Pass) error {
	w := analysis.NewWalker(pass, violationDesc)
	// A declaration annotated //amoeba:shardsafe is a trusted boundary:
	// its walk is cut and nothing behind it is reported. Audit mode walks
	// past it only to test its liveness: a non-empty subtree means the
	// marker still shields something.
	w.Boundary = func(decl *ast.FuncDecl, file *ast.File, walk func() []analysis.Reach) []analysis.Reach {
		pos := analysis.FuncMarkerPos(pass.Fset, file, decl, analysis.AnnotShardSafe)
		if pos == token.NoPos {
			return walk()
		}
		if pass.Audit && len(walk()) > 0 {
			pass.UseAnnotation(pos)
		}
		return nil
	}
	for _, f := range pass.Files {
		for _, fd := range analysis.MarkedFuncs(pass.Fset, f, analysis.AnnotShard) {
			root := analysis.DeclName(fd)
			w.Root(fd, fd.Body, func(n ast.Node, desc string) {
				pass.Reportf(n.Pos(), "shard worker %s %s", root, desc)
			}, func(call *ast.CallExpr, r analysis.Reach) {
				pass.ReportfVia(call.Pos(), r.Chain, "shard worker %s reaches code that %s via %s",
					root, r.Desc, strings.Join(r.Chain, " -> "))
			})
		}
	}
	return nil
}

// violationDesc classifies one AST node inside the function whose syntax
// is scope (a declaration or a walked literal) against the
// shard-isolation rules.
func violationDesc(info *types.Info, scope ast.Node, n ast.Node) (desc string, ok bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if v := pkgLevelTarget(info, lhs); v != nil {
				return "writes package-level " + v.Name(), true
			}
		}
	case *ast.IncDecStmt:
		if v := pkgLevelTarget(info, n.X); v != nil {
			return "writes package-level " + v.Name(), true
		}
	case *ast.SendStmt:
		if v, shared := sharedChannel(info, scope, n.Chan); shared {
			name := "channel expression"
			if v != nil {
				name = v.Name()
			}
			return "sends on " + name + ", a channel not passed in as a parameter", true
		}
	case *ast.CallExpr:
		if id, isBuiltin := n.Fun.(*ast.Ident); isBuiltin && len(n.Args) > 0 {
			if _, ok := info.Uses[id].(*types.Builtin); ok &&
				(id.Name == "delete" || id.Name == "copy") {
				if v := pkgLevelTarget(info, n.Args[0]); v != nil {
					return "mutates package-level " + v.Name() + " via " + id.Name, true
				}
			}
		}
		if pkg, recv, name := analysis.Method(info, n); pkg == "sync" {
			if (recv == "Mutex" && name == "Lock") ||
				(recv == "RWMutex" && (name == "Lock" || name == "RLock")) {
				return "locks sync." + recv + ", a sign of state shared across shards", true
			}
		}
	}
	return "", false
}

// pkgLevelTarget unwraps an assignment/mutation target (selector, index,
// star, paren chains) to its base identifier and returns the variable if
// it is package-level. Blank assignments and locals return nil.
func pkgLevelTarget(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			v, ok := info.ObjectOf(x).(*types.Var)
			if !ok || v.IsField() || v.Pkg() == nil {
				return nil
			}
			if v.Parent() == v.Pkg().Scope() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// sharedChannel reports whether the channel expression of a send escapes
// the shard: its base variable is declared outside the enclosing
// function syntax (package-level, or not an identifier at all).
// Parameters, the receiver, and local makes all live inside scope's
// source range and are allowed.
func sharedChannel(info *types.Info, scope ast.Node, ch ast.Expr) (*types.Var, bool) {
	for {
		switch x := ch.(type) {
		case *ast.ParenExpr:
			ch = x.X
		case *ast.SelectorExpr:
			ch = x.X
		case *ast.IndexExpr:
			ch = x.X
		case *ast.Ident:
			v, ok := info.ObjectOf(x).(*types.Var)
			if !ok {
				return nil, true
			}
			if v.Pos() >= scope.Pos() && v.Pos() < scope.End() {
				return v, false
			}
			return v, true
		default:
			return nil, true // computed channel: not locally traceable
		}
	}
}
