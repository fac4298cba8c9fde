// Package hotpath extends the determinism analyzers from syntactic
// checks to reachability: a call-graph walk rooted at the kernel entry
// points flags any statically resolvable path to an API that must never
// run inside simulated time.
//
// Roots, per analyzed package:
//
//   - functions annotated //amoeba:noalloc or //amoeba:hotpath;
//   - callback arguments handed to the simulator's scheduling methods
//     ((*sim.Simulator).At / AtStamp / After / Every): function literals
//     are walked in place, named functions and methods are walked
//     behind the argument position.
//
// Forbidden APIs (each with the invariant it would break):
//
//   - sync.Mutex.Lock, sync.RWMutex.Lock/RLock — the kernel is
//     single-threaded by design; blocking inside a callback stalls the
//     event loop;
//   - file and network I/O (os open/read/write/stat family and os.File
//     methods, net dialers and listeners, fmt print family, log) —
//     unbounded latency and external state inside the hot loop.
//
// Wall clocks and package-level math/rand are nodeterminism's rules, not
// this table's: nodeterminism flags every such call site in a non-main
// package, and no root lives in a package main, so a copy here would
// catch nothing more (DESIGN.md §7).
//
// fmt.Sprintf/Sprint/Sprintln/Errorf are deliberately not forbidden:
// they are pure formatting (no writer), and the engine legitimately
// builds labels with Sprintf behind a telemetry-bus guard. alloccheck
// separately flags them inside //amoeba:noalloc bodies.
//
// The walk is the shared analysis.Walker: it follows every edge the
// resolver can justify — package-level functions and concrete-receiver
// methods of the analyzed package and of its module-local dependencies,
// interface dispatch devirtualized against the module-wide
// class-hierarchy index (narrowed to types actually instantiated or
// address-taken — DESIGN.md §13), calls through func-valued locals whose
// binding set the intra-procedural tracking can prove complete, and
// calls through func-valued struct fields resolved by the module-wide
// field-flow layer (DESIGN.md §16), including function literals stored
// in fields by dependency packages. Dynamic edges are named in the
// diagnostic chain, e.g. "via dynamic dispatch on Sink.Consume =>
// MetricsSink.Consume" or "via field engine.onDrain => drain". Calls
// into packages without loaded syntax (the standard library) are not
// followed — the forbidden table screens the stdlib surface directly —
// and bindings either tracker abandons as tainted (values from unseen
// callers or external writers) are the residual gap that the runtime
// AllocsPerRun and golden-determinism tests backstop.
//
// Transitive findings are reported at the call edge in the analyzed
// package with the full chain in the message, so an //amoeba:allow
// hotpath suppression can sit next to code the package owns; an
// //amoeba:allow hotpath at the violating line itself — even inside a
// walked dependency — suppresses the finding for every root that
// reaches it, so one annotation at the origin covers the whole fan-in.
package hotpath

import (
	"go/ast"
	"go/types"
	"strings"

	"amoeba/internal/analysis"
)

// Analyzer flags forbidden-API calls reachable from kernel entry points.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "code reachable from //amoeba:noalloc///amoeba:hotpath functions and simulator " +
		"callbacks must not lock mutexes or do file/network I/O",
	Run: run,
}

func run(pass *analysis.Pass) error {
	w := analysis.NewWalker(pass, forbidden)
	for _, f := range pass.Files {
		for _, marker := range []string{analysis.AnnotNoAlloc, analysis.AnnotHotpath} {
			for _, fd := range analysis.MarkedFuncs(pass.Fset, f, marker) {
				reportRoot(pass, w, fd, fd.Body, analysis.DeclName(fd))
			}
		}
		callbackRoots(pass, w, f)
	}
	return nil
}

// reportRoot walks one root body in the analyzed package, reporting
// direct forbidden calls and transitive reaches at their call edges.
func reportRoot(pass *analysis.Pass, w *analysis.Walker, scope ast.Node, body *ast.BlockStmt, root string) {
	w.Root(scope, body, func(n ast.Node, api string) {
		pass.Reportf(n.Pos(), "hot path %s calls %s", root, api)
	}, func(call *ast.CallExpr, r analysis.Reach) {
		pass.ReportfVia(call.Pos(), r.Chain, "hot path %s reaches %s via %s",
			root, r.Desc, strings.Join(r.Chain, " -> "))
	})
}

// callbackRoots treats the function arguments of simulator scheduling
// calls as hot-path roots.
func callbackRoots(pass *analysis.Pass, w *analysis.Walker, f *ast.File) {
	info := pass.TypesInfo
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		pkg, recv, name := analysis.Method(info, call)
		if recv != "Simulator" || !simPackage(pkg) {
			return true
		}
		if name != "At" && name != "AtStamp" && name != "After" && name != "Every" {
			return true
		}
		root := "sim." + name + " callback"
		switch arg := call.Args[len(call.Args)-1].(type) {
		case *ast.FuncLit:
			reportRoot(pass, w, arg, arg.Body, root)
		default:
			for _, edge := range w.Resolve.FuncValueEdges(info, arg) {
				if edge.Lit != nil && edge.LitPkg == nil {
					// A literal bound to a local and scheduled by name:
					// the literal's body is the callback.
					reportRoot(pass, w, edge.Lit, edge.Lit.Body, root)
					continue
				}
				callee := edge.Via
				if callee == "" {
					callee = analysis.FuncDisplayName(pass.Pkg, edge.Fn)
				}
				for _, r := range w.Reaches(edge) {
					pass.ReportfVia(arg.Pos(), r.Chain, "%s %s reaches %s via %s",
						root, callee, r.Desc, strings.Join(r.Chain, " -> "))
				}
			}
		}
		return true
	})
}

// forbidden is hotpath's rule for the walker: it classifies a call
// against the forbidden-API table, describing the API and the invariant
// it breaks.
func forbidden(info *types.Info, _, n ast.Node) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok || info == nil {
		return "", false
	}
	if pkg, name := analysis.PkgFunc(info, call); pkg != "" {
		switch pkg {
		case "os":
			switch name {
			case "Open", "OpenFile", "Create", "ReadFile", "WriteFile",
				"Remove", "RemoveAll", "Mkdir", "MkdirAll", "Stat", "ReadDir":
				return "os." + name + " (file I/O in the event loop)", true
			}
		case "net":
			switch name {
			case "Dial", "DialTimeout", "DialUDP", "DialTCP", "Listen", "ListenPacket":
				return "net." + name + " (network I/O in the event loop)", true
			}
		case "fmt":
			switch name {
			case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
				return "fmt." + name + " (writer I/O in the event loop)", true
			}
		case "log":
			return "log." + name + " (logging I/O in the event loop)", true
		}
		return "", false
	}
	pkg, recv, name := analysis.Method(info, call)
	switch {
	case pkg == "sync" && recv == "Mutex" && name == "Lock":
		return "sync.Mutex.Lock (blocking in the single-threaded kernel)", true
	case pkg == "sync" && recv == "RWMutex" && (name == "Lock" || name == "RLock"):
		return "sync.RWMutex." + name + " (blocking in the single-threaded kernel)", true
	case pkg == "os" && recv == "File" &&
		(name == "Read" || name == "Write" || name == "Seek" || name == "Sync" || name == "Close"):
		return "os.File." + name + " (file I/O in the event loop)", true
	case pkg == "log" && recv == "Logger":
		return "log.Logger." + name + " (logging I/O in the event loop)", true
	}
	return "", false
}

// simPackage matches the simulator package by module-relative suffix so
// testdata stubs qualify alongside the real amoeba/internal/sim.
func simPackage(pkgPath string) bool {
	return pkgPath == "internal/sim" || strings.HasSuffix(pkgPath, "/internal/sim")
}
