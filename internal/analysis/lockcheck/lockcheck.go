// Package lockcheck flags mutexes held across blocking hand-off points:
// channel sends, sync.WaitGroup.Wait, and goroutine spawns. The
// repository's fan-out pattern (experiments.Suite.Prefetch, the profiling
// worker pools) makes this the likeliest deadlock shape: a goroutine that
// sends or waits while holding a lock that the receiving side needs. The
// analyzer performs a conservative intra-procedural scan — it tracks
// Lock/Unlock pairs per syntactic path (analysis.ScanPaths, shared with
// chancheck) and does not model aliasing — so
// a deliberate held-across-send design can be annotated with
// //amoeba:allow lockcheck <reason>.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"amoeba/internal/analysis"
)

// Analyzer flags sync.Mutex/RWMutex held across channel sends, WaitGroup
// waits, and goroutine spawns.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc: "mutexes must not be held across channel sends, sync.WaitGroup.Wait, " +
		"or goroutine spawns; release the lock or annotate the design",
	Run: run,
}

func run(pass *analysis.Pass) error {
	leaf := func(s ast.Stmt, h held) { step(pass, s, h) }
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					analysis.ScanPaths(n.Body.List, held{}, leaf)
				}
			case *ast.FuncLit:
				analysis.ScanPaths(n.Body.List, held{}, leaf)
			}
			return true
		})
	}
	return nil
}

// held maps each mutex locked on the current syntactic path to its Lock
// site. The shared path scan (analysis.ScanPaths) gives each branch a
// clone of it.
type held map[string]token.Pos

// Clone copies the held set for a branch.
func (h held) Clone() held {
	out := make(held, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// step applies one straight-line statement to the held set.
func step(pass *analysis.Pass, s ast.Stmt, h held) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			applyCall(pass, call, h)
		}
	case *ast.SendStmt:
		reportHeld(pass, s.Arrow, h, "channel send")
	case *ast.GoStmt:
		reportHeld(pass, s.Pos(), h, "goroutine spawn")
		// The spawned body runs without the spawner's locks; the
		// top-level FuncLit walk scans it with a fresh held set.
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok {
				applyCall(pass, call, h)
			}
		}
	}
	// A DeferStmt changes nothing: defer mu.Unlock() keeps the mutex
	// held for every statement that follows, which is exactly what this
	// analyzer audits.
}

// applyCall updates the held set for mutex operations and flags
// WaitGroup waits under a lock.
func applyCall(pass *analysis.Pass, call *ast.CallExpr, h held) {
	pkg, recv, name := analysis.Method(pass.TypesInfo, call)
	if pkg != "sync" {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	key := types.ExprString(sel.X)
	switch {
	case (recv == "Mutex" || recv == "RWMutex") && (name == "Lock" || name == "RLock"):
		h[key] = call.Pos()
	case (recv == "Mutex" || recv == "RWMutex") && (name == "Unlock" || name == "RUnlock"):
		delete(h, key)
	case recv == "WaitGroup" && name == "Wait":
		reportHeld(pass, call.Pos(), h, "WaitGroup.Wait")
	}
}

func reportHeld(pass *analysis.Pass, pos token.Pos, h held, what string) {
	keys := make([]string, 0, len(h))
	for mu := range h {
		keys = append(keys, mu)
	}
	sort.Strings(keys)
	for _, mu := range keys {
		pass.Reportf(pos, "%s while holding %s (locked at %s): release the lock first "+
			"or annotate //amoeba:allow lockcheck", what, mu, pass.Fset.Position(h[mu]))
	}
}
