// Package chancheck enforces the repository's channel-ownership
// discipline. Three rules, matching how the sweep driver and the
// profiling pools use channels:
//
//  1. Close by sender only. A close(ch) in a function that receives
//     from ch but never sends on it is closing from the consumer side —
//     the shape that panics another goroutine's send. Sends anywhere in
//     the declaring function, nested literals included, count as
//     ownership: the feeder-closure idiom (spawn a literal that sends
//     and then closes) is the intended pattern. Two closer-isn't-sender
//     idioms are recognised and accepted: closing a chan struct{} (a
//     broadcast latch carries no data, so there is no send to panic),
//     and a close preceded by a .Wait() call in the same declaration
//     (the fan-in coordinator closing after every sender has joined).
//
//  2. No double-close and no send-after-close on any syntactic path.
//     The scan is path-sensitive (analysis.ScanPaths, shared with
//     lockcheck): a per-path closed set, cloned into branches, so a
//     close in one select arm or if branch does not poison its siblings
//     or the fall-through path (conservative: a branch-then-fall-through
//     double close is missed, a straight-line or same-branch one is
//     caught). A deferred close counts against every later close of the
//     same channel, but not against later sends — it only runs at return.
//
//  3. Named-constant capacities at //amoeba:bounded parameters. A
//     function may annotate channel parameters //amoeba:bounded p1 p2;
//     every call site must pass channels made with a named-constant
//     capacity (make(chan T, someCap)), so the queue bound is a
//     reviewable declaration rather than a magic number — and an
//     unbuffered channel is rejected too, because a bounded hand-off
//     queue was asked for. A caller may satisfy the contract by
//     forwarding one of its own //amoeba:bounded parameters.
//
// The analysis is intra-procedural apart from the annotation lookup at
// call sites. Channels are tracked by expression spelling, so aliasing
// (ch2 := ch) defeats the closed-set rules, and a channel built by a
// helper function is not traced to its make — both documented blind
// spots, backstopped by -race runs. Deliberate exceptions carry
// //amoeba:allow chancheck <reason>.
package chancheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"amoeba/internal/analysis"
)

// Analyzer enforces close-by-sender, no double-close/send-after-close,
// and named-constant capacities at //amoeba:bounded parameters.
var Analyzer = &analysis.Analyzer{
	Name: "chancheck",
	Doc: "channels are closed by their sender exactly once, never sent on after close, " +
		"and //amoeba:bounded parameters receive channels with named-constant capacities",
	Run: run,
}

func run(pass *analysis.Pass) error {
	resolve := analysis.NewResolver(pass)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkBoundedGrammar(pass, f, decl)
			if decl.Body == nil {
				continue
			}
			checkDecl(pass, resolve, f, decl)
		}
	}
	return nil
}

// checkBoundedGrammar validates an //amoeba:bounded marker against the
// declaration it annotates: it must name at least one parameter, and
// every name must be a channel-typed parameter.
func checkBoundedGrammar(pass *analysis.Pass, f *ast.File, decl *ast.FuncDecl) {
	params, ok := analysis.BoundedParams(pass.Fset, f, decl)
	if !ok {
		return
	}
	if len(params) == 0 {
		pass.Reportf(decl.Pos(), "//amoeba:bounded on %s names no parameters", decl.Name.Name)
		return
	}
	for _, name := range params {
		if !isChanParam(pass.TypesInfo, decl, name) {
			pass.Reportf(decl.Pos(), "//amoeba:bounded on %s lists %s, which is not a "+
				"channel parameter", decl.Name.Name, name)
		}
	}
}

func isChanParam(info *types.Info, decl *ast.FuncDecl, name string) bool {
	if decl.Type.Params == nil {
		return false
	}
	for _, field := range decl.Type.Params.List {
		for _, id := range field.Names {
			if id.Name == name {
				t := info.TypeOf(id)
				if t == nil {
					return false
				}
				_, ok := t.Underlying().(*types.Chan)
				return ok
			}
		}
	}
	return false
}

// declFacts are the channel sends and receives anywhere in one function
// declaration, nested literals included. Ownership is judged at the
// declaration, not the literal: the feeder closure that sends is part
// of the same function that made the channel.
type declFacts struct {
	sends    map[string]bool
	receives map[string]bool
	waits    []token.Pos // positions of .Wait() calls, for close-after-join
}

func gatherFacts(info *types.Info, decl *ast.FuncDecl) *declFacts {
	f := &declFacts{sends: make(map[string]bool), receives: make(map[string]bool)}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			f.sends[types.ExprString(n.Chan)] = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				f.receives[types.ExprString(n.X)] = true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					f.receives[types.ExprString(n.X)] = true
				}
			}
		case *ast.CallExpr:
			// Syntactic, as in goroleak: WaitGroup, errgroup, and
			// anonymous-interface pools all join through .Wait().
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				f.waits = append(f.waits, n.Pos())
			}
		}
		return true
	})
	return f
}

// receiverSideClose reports whether closing ch at pos is a
// consumer-side close: the declaration receives from ch, never sends on
// it, no join precedes the close, and ch is not a struct{} broadcast
// latch.
func receiverSideClose(info *types.Info, facts *declFacts, ch ast.Expr, pos token.Pos) bool {
	key := types.ExprString(ch)
	if !facts.receives[key] || facts.sends[key] {
		return false
	}
	for _, w := range facts.waits {
		if w < pos {
			return false // close-after-join: every sender has exited
		}
	}
	if t := info.TypeOf(ch); t != nil {
		if c, ok := t.Underlying().(*types.Chan); ok {
			if s, ok := c.Elem().Underlying().(*types.Struct); ok && s.NumFields() == 0 {
				return false // broadcast latch: nothing ever sends
			}
		}
	}
	return true
}

// checkDecl runs the path-sensitive close scan over the declaration body
// and every nested literal (each with a fresh closed set — a goroutine
// body is a different timeline), then audits the call sites for
// //amoeba:bounded capacity contracts.
func checkDecl(pass *analysis.Pass, resolve *analysis.Resolver, f *ast.File, decl *ast.FuncDecl) {
	facts := gatherFacts(pass.TypesInfo, decl)
	leaf := func(s ast.Stmt, st *pathState) { step(pass, facts, s, st) }
	analysis.ScanPaths(decl.Body.List, &pathState{closed: map[string]token.Pos{}}, leaf)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			analysis.ScanPaths(lit.Body.List, &pathState{closed: map[string]token.Pos{}}, leaf)
		}
		return true
	})
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			checkBoundedCall(pass, resolve, f, decl, call)
		}
		return true
	})
}

// pathState is the closed-channel tracking for one syntactic path.
// deferredClose records `defer close(ch)` sites, which close at return
// on every path and therefore clash with any other close of the same
// channel but do not forbid later sends.
type pathState struct {
	closed        map[string]token.Pos
	deferredClose map[string]token.Pos
}

// Clone copies the path state for a branch (analysis.ScanPaths).
func (p *pathState) Clone() *pathState {
	out := &pathState{closed: make(map[string]token.Pos, len(p.closed)), deferredClose: p.deferredClose}
	for k, v := range p.closed {
		out.closed[k] = v
	}
	return out
}

func (p *pathState) deferred(key string) (token.Pos, bool) {
	pos, ok := p.deferredClose[key]
	return pos, ok
}

// step applies one straight-line statement to the path state.
func step(pass *analysis.Pass, facts *declFacts, s ast.Stmt, st *pathState) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if ch, ok := closeArg(s.X); ok {
			key := types.ExprString(ch)
			if pos, dup := st.closed[key]; dup {
				pass.Reportf(s.Pos(), "close(%s): already closed on this path (closed at %s)",
					key, pass.Fset.Position(pos))
			} else if pos, dup := st.deferred(key); dup {
				pass.Reportf(s.Pos(), "close(%s): the deferred close at %s will close it "+
					"again at return", key, pass.Fset.Position(pos))
			}
			st.closed[key] = s.Pos()
			if receiverSideClose(pass.TypesInfo, facts, ch, s.Pos()) {
				pass.Reportf(s.Pos(), "close(%s) from the receiving side: only the sender "+
					"closes a channel", key)
			}
		}
	case *ast.DeferStmt:
		if ch, ok := closeArg(s.Call); ok {
			key := types.ExprString(ch)
			if pos, dup := st.closed[key]; dup {
				pass.Reportf(s.Pos(), "defer close(%s): already closed on this path "+
					"(closed at %s)", key, pass.Fset.Position(pos))
			} else if pos, dup := st.deferred(key); dup {
				pass.Reportf(s.Pos(), "defer close(%s): already deferred at %s",
					key, pass.Fset.Position(pos))
			}
			if st.deferredClose == nil {
				st.deferredClose = map[string]token.Pos{}
			}
			st.deferredClose[key] = s.Pos()
			if receiverSideClose(pass.TypesInfo, facts, ch, s.Pos()) {
				pass.Reportf(s.Pos(), "close(%s) from the receiving side: only the sender "+
					"closes a channel", key)
			}
		}
	case *ast.SendStmt:
		key := types.ExprString(s.Chan)
		if pos, closed := st.closed[key]; closed {
			pass.Reportf(s.Arrow, "send on %s after close (closed at %s)",
				key, pass.Fset.Position(pos))
		}
	case *ast.AssignStmt:
		// Reassignment (ch = make(...)) opens a fresh channel under the
		// same name; drop it from the closed set.
		for _, lhs := range s.Lhs {
			delete(st.closed, types.ExprString(lhs))
		}
	}
}

// closeArg returns the channel expression of a close(ch) call.
func closeArg(e ast.Expr) (ast.Expr, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil, false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "close" {
		return nil, false
	}
	return call.Args[0], true
}

// checkBoundedCall audits one call site against the callee's
// //amoeba:bounded contract: each listed parameter must receive a
// channel whose make capacity is a named constant, or a forwarded
// //amoeba:bounded parameter of the calling function.
func checkBoundedCall(pass *analysis.Pass, resolve *analysis.Resolver, f *ast.File, decl *ast.FuncDecl, call *ast.CallExpr) {
	fn := resolve.FuncObj(pass.TypesInfo, call.Fun)
	if fn == nil {
		return
	}
	calleeDecl, calleePkg := resolve.DeclOf(fn)
	if calleeDecl == nil {
		return
	}
	calleeFile := resolve.FileAt(calleePkg, calleeDecl.Pos())
	if calleeFile == nil {
		return
	}
	bounded, ok := analysis.BoundedParams(pass.Fset, calleeFile, calleeDecl)
	if !ok {
		return
	}
	for _, name := range bounded {
		idx, found := paramIndex(calleeDecl, name)
		if !found || idx >= len(call.Args) {
			continue // grammar errors are reported at the declaration
		}
		checkBoundedArg(pass, f, decl, call.Args[idx], name, fn.Name())
	}
}

// paramIndex maps a parameter name to its positional argument index,
// counting through grouped fields (jobs, results chan int).
func paramIndex(decl *ast.FuncDecl, name string) (int, bool) {
	idx := 0
	for _, field := range decl.Type.Params.List {
		for _, id := range field.Names {
			if id.Name == name {
				return idx, true
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++ // unnamed parameter still occupies a slot
		}
	}
	return 0, false
}

// checkBoundedArg traces one argument to its make site. Arguments it
// cannot trace — a channel returned by a helper, a struct field — pass
// silently: the contract is best-effort at the spelling level, and the
// declaration-site rules still hold inside the callee.
func checkBoundedArg(pass *analysis.Pass, f *ast.File, decl *ast.FuncDecl, arg ast.Expr, param, callee string) {
	arg = ast.Unparen(arg)
	if mk, ok := makeChanCall(pass.TypesInfo, arg); ok {
		checkMakeCap(pass, arg.Pos(), mk, param, callee)
		return
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return
	}
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return
	}
	if isParamOf(decl, obj) {
		own, _ := analysis.BoundedParams(pass.Fset, f, decl)
		for _, p := range own {
			if p == id.Name {
				return // forwarding a parameter under the same contract
			}
		}
		pass.Reportf(arg.Pos(), "%s forwards parameter %s to //amoeba:bounded parameter "+
			"%s of %s without declaring it //amoeba:bounded itself",
			decl.Name.Name, id.Name, param, callee)
		return
	}
	if mk := findMake(pass.TypesInfo, decl, obj); mk != nil {
		checkMakeCap(pass, arg.Pos(), mk, param, callee)
	}
}

func isParamOf(decl *ast.FuncDecl, obj types.Object) bool {
	if decl.Type.Params == nil {
		return false
	}
	return decl.Type.Params.Pos() <= obj.Pos() && obj.Pos() < decl.Type.Params.End()
}

// findMake locates the make(chan ...) that initialises obj within the
// function body (short variable declaration, assignment, or var spec).
func findMake(info *types.Info, decl *ast.FuncDecl, obj types.Object) *ast.CallExpr {
	var mk *ast.CallExpr
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && info.ObjectOf(id) == obj && i < len(n.Rhs) {
					if call, ok := makeChanCall(info, ast.Unparen(n.Rhs[i])); ok {
						mk = call
					}
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if info.ObjectOf(id) == obj && i < len(n.Values) {
					if call, ok := makeChanCall(info, ast.Unparen(n.Values[i])); ok {
						mk = call
					}
				}
			}
		}
		return mk == nil
	})
	return mk
}

// makeChanCall reports whether e is a call to the builtin make with a
// channel type operand.
func makeChanCall(info *types.Info, e ast.Expr) (*ast.CallExpr, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil, false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" {
		return nil, false
	}
	if _, ok := info.ObjectOf(id).(*types.Builtin); !ok {
		return nil, false
	}
	t := info.TypeOf(call.Args[0])
	if t == nil {
		return nil, false
	}
	_, isChan := t.Underlying().(*types.Chan)
	return call, isChan
}

// checkMakeCap enforces the named-constant capacity rule on one make
// site, reporting at pos (the argument position at the call).
func checkMakeCap(pass *analysis.Pass, pos token.Pos, mk *ast.CallExpr, param, callee string) {
	if len(mk.Args) < 2 {
		pass.Reportf(pos, "channel for //amoeba:bounded parameter %s of %s is unbuffered: "+
			"make it with a named-constant capacity", param, callee)
		return
	}
	if !namedConst(pass.TypesInfo, mk.Args[1]) {
		pass.Reportf(pos, "capacity %s of the channel for //amoeba:bounded parameter %s of %s "+
			"is not a named constant", types.ExprString(mk.Args[1]), param, callee)
	}
}

// namedConst reports whether e is a reference to a declared constant
// (possibly package-qualified), as opposed to a literal or expression.
func namedConst(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		_, ok := info.ObjectOf(e).(*types.Const)
		return ok
	case *ast.SelectorExpr:
		_, ok := info.ObjectOf(e.Sel).(*types.Const)
		return ok
	}
	return false
}
