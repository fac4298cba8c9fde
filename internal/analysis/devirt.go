package analysis

// Devirtualization: the module-wide class-hierarchy index and the
// intra-procedural func-value tracking that close the dynamic-dispatch
// blind spot of the call-graph analyzers (DESIGN.md §13).
//
// Resolver.FuncObj in callgraph.go resolves only statically bound
// calls: package-level functions and concrete-receiver methods. Until
// this layer existed, an interface-dispatched call or a call through a
// func-valued local resolved to nil and the walk silently stopped —
// exactly the edges the platform routes its cross-component
// interactions through (telemetry sinks behind obs.Sink, load traces
// behind trace.Trace, sweep callbacks as func values). CalleeEdges
// widens the graph with two resolutions:
//
//   - interface dispatch: a class-hierarchy index over the analyzed
//     package and every module-local dependency the loader has syntax
//     for, narrowed RTA-style to concrete named types that are actually
//     instantiated (composite literal, new, conversion, explicitly
//     typed var) or address-taken anywhere in that universe. A call
//     x.M() where x is an interface resolves to the M of every live
//     type implementing the interface;
//
//   - func values: per-package, per-function tracking of named
//     functions, method values, and function literals bound to local
//     variables (including through local aliases), so f := t.fire; f()
//     resolves to ticker.fire. A variable is abandoned — no edges —
//     the moment the tracking would be unsound: it is address-taken,
//     assigned from a call result or any other untrackable expression,
//     or it is a parameter (the value comes from an unseen caller);
//
//   - struct fields: the module-wide field-sensitive flow in fieldflow.go
//     resolves calls through func-valued struct fields (g.onArrival
//     stored at construction and called later) to every value the
//     universe stores in that field, with the same abandon-on-taint
//     contract — a field that ever receives an opaque value (parameter,
//     call result, address-taken) yields no edges.
//
// With the field layer in place the remaining resolution gaps are
// tainted bindings themselves (values from unseen callers or external
// writers) and packages without loaded syntax; the runtime suites
// (-race, golden determinism, AllocsPerRun) backstop those.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A CalleeEdge is one possible target of a call or of a func-valued
// expression. Exactly one of Fn and Lit is set: Fn for named functions
// and methods (always the generic origin, never an instantiation), Lit
// for a function literal bound to a local or stored in a struct field.
// Via is empty for statically bound calls; for dynamic edges it names
// the dispatch, e.g.
// "dynamic dispatch on Sink.Consume => MetricsSink.Consume",
// "func value f => stamp", or "field engine.onDrain => drain", ready to
// splice into a diagnostic chain.
type CalleeEdge struct {
	Fn  *types.Func
	Lit *ast.FuncLit
	// LitPkg is set on literal edges that originate outside the calling
	// function's own body (func values stored in struct fields): the
	// package whose syntax and type info cover Lit, so a walker can
	// analyze the literal's body in the right context. Nil for locally
	// bound literals, whose bodies the walkers see inline.
	LitPkg *types.Package
	Via    string
}

// pkgSyntax is one package of the devirtualization universe: the
// analyzed package or a module-local dependency with loaded syntax.
type pkgSyntax struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// devirtIndex is the lazily built module-wide state behind CalleeEdges.
type devirtIndex struct {
	univ []*pkgSyntax

	liveBuilt bool
	live      []types.Type    // instantiated/address-taken concrete named types, deterministic order
	liveSeen  map[string]bool // keyed by TypeString for cross-package instance dedup
	implMemo  map[*types.Func][]*types.Func

	scanned  map[*types.Package]bool
	bindings map[*types.Var][]CalleeEdge
	aliases  map[*types.Var][]*types.Var
	fieldSrc map[*types.Var][]*types.Var // local -> struct-field origins it copies
	tainted  map[*types.Var]bool
	fields   *fieldIndex // lazily built by fieldIndexOf (fieldflow.go)
}

func (r *Resolver) index() *devirtIndex {
	if r.devirt == nil {
		r.devirt = &devirtIndex{
			liveSeen: make(map[string]bool),
			implMemo: make(map[*types.Func][]*types.Func),
			scanned:  make(map[*types.Package]bool),
			bindings: make(map[*types.Var][]CalleeEdge),
			aliases:  make(map[*types.Var][]*types.Var),
			fieldSrc: make(map[*types.Var][]*types.Var),
			tainted:  make(map[*types.Var]bool),
		}
		r.devirt.univ = r.universe()
	}
	return r.devirt
}

// universe collects the analyzed package plus every module-local
// dependency with loaded syntax, breadth-first over the import graph so
// the order (and hence every index derived from it) is deterministic.
func (r *Resolver) universe() []*pkgSyntax {
	var out []*pkgSyntax
	seen := map[*types.Package]bool{r.pass.Pkg: true}
	queue := []*types.Package{r.pass.Pkg}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		files, info := r.syntaxOf(pkg)
		if info != nil {
			out = append(out, &pkgSyntax{pkg: pkg, files: files, info: info})
		}
		for _, imp := range pkg.Imports() {
			if !seen[imp] {
				seen[imp] = true
				queue = append(queue, imp)
			}
		}
	}
	return out
}

// CalleeEdges resolves a call expression to its possible target edges.
// Builtins, conversions, and expressions neither tracking layer can
// follow (package-level func variables, tainted locals, tainted struct
// fields) yield no edges.
func (r *Resolver) CalleeEdges(info *types.Info, call *ast.CallExpr) []CalleeEdge {
	return r.FuncValueEdges(info, call.Fun)
}

// FuncValueEdges resolves an expression used as a func value — a callee
// or a callback argument — to its possible target edges.
func (r *Resolver) FuncValueEdges(info *types.Info, e ast.Expr) []CalleeEdge {
	e = unwrapCallee(e)
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	switch obj := info.Uses[id].(type) {
	case *types.Func:
		fn := obj.Origin()
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type().Underlying()) {
			return r.dispatchEdges(fn, "")
		}
		if fn.Pkg() == nil {
			return nil
		}
		return []CalleeEdge{{Fn: fn}}
	case *types.Var:
		if obj.IsField() {
			return r.fieldEdges(obj)
		}
		return r.funcVarEdges(obj)
	}
	return nil
}

// dispatchEdges devirtualizes one interface method against the live-type
// index. prefix, when non-empty, names the func value the method value
// was bound to.
func (r *Resolver) dispatchEdges(iface *types.Func, prefix string) []CalleeEdge {
	ifaceName := FuncDisplayName(r.pass.Pkg, iface)
	var out []CalleeEdge
	for _, impl := range r.implementersOf(iface) {
		via := "dynamic dispatch on " + ifaceName + " => " + FuncDisplayName(r.pass.Pkg, impl)
		if prefix != "" {
			via = prefix + " => " + via
		}
		out = append(out, CalleeEdge{Fn: impl, Via: via})
	}
	return out
}

// funcVarEdges resolves a call through a func-typed variable. Only
// function-scope locals with a complete, untainted binding set resolve;
// parameters, package-level variables, and fields do not (fields go
// through fieldEdges instead).
func (r *Resolver) funcVarEdges(v *types.Var) []CalleeEdge {
	raw := r.rawVarEdges(v)
	if raw == nil {
		return nil
	}
	out := make([]CalleeEdge, 0, len(raw))
	for _, e := range raw {
		e.Via = withFuncValuePrefix(v, e, r.pass.Pkg)
		out = append(out, e)
	}
	return out
}

// rawVarEdges computes the binding set of a func-typed local without the
// "func value v => ..." prefix, so the field-flow layer can reuse it for
// locals stored into fields. nil when the set cannot be proven complete.
func (r *Resolver) rawVarEdges(v *types.Var) []CalleeEdge {
	if !isTrackableLocal(v) {
		return nil
	}
	idx := r.index()
	idx.scanBindingsOf(v.Pkg())
	var out []CalleeEdge
	visited := make(map[*types.Var]bool)
	sound := r.collectVarEdges(v, visited, &out)
	if !sound {
		return nil
	}
	if out == nil {
		out = []CalleeEdge{} // complete-but-empty (e.g. cycle head): not unsound
	}
	return out
}

// collectVarEdges accumulates the raw binding set of v (following local
// aliases and struct-field sources) into out, reporting false the moment
// any variable or field on the chain is tainted.
func (r *Resolver) collectVarEdges(v *types.Var, visited map[*types.Var]bool, out *[]CalleeEdge) bool {
	if visited[v] {
		return true
	}
	visited[v] = true
	idx := r.devirt
	if idx.tainted[v] {
		return false
	}
	if len(idx.bindings[v]) == 0 && len(idx.aliases[v]) == 0 && len(idx.fieldSrc[v]) == 0 {
		// Never assigned anything we saw: the value comes from
		// somewhere the tracking cannot follow.
		return false
	}
	*out = append(*out, idx.bindings[v]...)
	for _, a := range idx.aliases[v] {
		if !r.collectVarEdges(a, visited, out) {
			return false
		}
	}
	for _, f := range idx.fieldSrc[v] {
		// f := x.onDrain: the local's values are the field's values.
		fes := r.fieldEdges(f)
		if fes == nil {
			return false
		}
		*out = append(*out, fes...)
	}
	return true
}

// withFuncValuePrefix renders the Via label of one func-value edge.
func withFuncValuePrefix(v *types.Var, e CalleeEdge, cur *types.Package) string {
	switch {
	case e.Lit != nil:
		return "func value " + v.Name() + " => function literal"
	case e.Via != "":
		return "func value " + v.Name() + " => " + e.Via
	default:
		return "func value " + v.Name() + " => " + FuncDisplayName(cur, e.Fn)
	}
}

// isTrackableLocal reports whether v is a function-scope local variable
// of function type — the only kind of func value the intra-procedural
// tracking claims to resolve.
func isTrackableLocal(v *types.Var) bool {
	if v.Pkg() == nil || v.IsField() || v.Parent() == nil || v.Parent() == v.Pkg().Scope() {
		return false
	}
	_, ok := v.Type().Underlying().(*types.Signature)
	return ok
}

// implementersOf returns the concrete methods implementing one
// interface method across the live-type index, in deterministic order.
func (r *Resolver) implementersOf(iface *types.Func) []*types.Func {
	idx := r.index()
	if impls, ok := idx.implMemo[iface]; ok {
		return impls
	}
	sig := iface.Type().(*types.Signature)
	it, ok := sig.Recv().Type().Underlying().(*types.Interface)
	var impls []*types.Func
	if ok {
		idx.buildLive(r)
		seen := make(map[*types.Func]bool)
		for _, t := range idx.live {
			if !types.Implements(t, it) && !types.Implements(types.NewPointer(t), it) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(t, true, iface.Pkg(), iface.Name())
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if fsig, ok := fn.Type().(*types.Signature); ok && fsig.Recv() != nil &&
				types.IsInterface(fsig.Recv().Type().Underlying()) {
				continue // promoted from an embedded interface: still dynamic
			}
			if !seen[fn] {
				seen[fn] = true
				impls = append(impls, fn)
			}
		}
	}
	sort.Slice(impls, func(i, j int) bool {
		a, b := FuncDisplayName(r.pass.Pkg, impls[i]), FuncDisplayName(r.pass.Pkg, impls[j])
		if a != b {
			return a < b
		}
		return impls[i].Pos() < impls[j].Pos()
	})
	idx.implMemo[iface] = impls
	return impls
}

// buildLive scans the universe once for concrete named types that are
// instantiated or address-taken, closing over aggregate fields (a live
// struct makes its field types live).
func (idx *devirtIndex) buildLive(r *Resolver) {
	if idx.liveBuilt {
		return
	}
	idx.liveBuilt = true
	for _, ps := range idx.univ {
		for _, f := range ps.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					idx.addLive(ps.info.TypeOf(n))
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						idx.addLive(ps.info.TypeOf(n.X))
					}
				case *ast.CallExpr:
					if id, ok := unwrapCallee(n.Fun).(*ast.Ident); ok {
						if b, ok := ps.info.Uses[id].(*types.Builtin); ok && b.Name() == "new" {
							idx.addLive(ps.info.TypeOf(n))
						}
					}
					if tv, ok := ps.info.Types[n.Fun]; ok && tv.IsType() {
						idx.addLive(tv.Type)
					}
				case *ast.ValueSpec:
					if n.Type != nil {
						idx.addLive(ps.info.TypeOf(n.Type))
					}
				}
				return true
			})
		}
	}
}

// addLive records one type (and, for aggregates, its element and field
// types) as instantiated.
func (idx *devirtIndex) addLive(t types.Type) {
	if t == nil {
		return
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok || types.IsInterface(named.Underlying()) {
		return
	}
	if named.TypeParams().Len() > 0 && named.TypeArgs() == nil {
		return // uninstantiated generic: no concrete method set
	}
	key := types.TypeString(named, nil)
	if idx.liveSeen[key] {
		return
	}
	idx.liveSeen[key] = true
	idx.live = append(idx.live, named)
	switch u := named.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			idx.addLive(u.Field(i).Type())
		}
	case *types.Array:
		idx.addLive(u.Elem())
	}
}

// scanBindingsOf indexes the func-value bindings of one package's
// syntax: every assignment of a named function, method value, literal,
// or local alias to a func-typed local, plus the taints that make a
// variable untrackable.
func (idx *devirtIndex) scanBindingsOf(pkg *types.Package) {
	if idx.scanned[pkg] {
		return
	}
	idx.scanned[pkg] = true
	var ps *pkgSyntax
	for _, cand := range idx.univ {
		if cand.pkg == pkg {
			ps = cand
			break
		}
	}
	if ps == nil {
		return
	}
	info := ps.info
	for _, f := range ps.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						idx.recordBinding(info, n.Lhs[i], n.Rhs[i])
					}
				} else {
					for _, lhs := range n.Lhs {
						idx.taintIdent(info, lhs)
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Names {
						idx.recordBinding(info, n.Names[i], n.Values[i])
					}
				} else if len(n.Values) > 0 {
					for _, name := range n.Names {
						idx.taintIdent(info, name)
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					idx.taintIdent(info, n.X)
				}
			case *ast.RangeStmt:
				idx.taintIdent(info, n.Key)
				// for _, h := range x.handlers: the element local's
				// values are the container field's values.
				if !idx.recordRangeFieldSrc(info, n.Value, n.X) {
					idx.taintIdent(info, n.Value)
				}
			}
			return true
		})
	}
}

// recordBinding tracks one lhs := rhs pair; an untrackable rhs taints
// the variable instead.
func (idx *devirtIndex) recordBinding(info *types.Info, lhs, rhs ast.Expr) {
	v := localFuncVar(info, lhs)
	if v == nil {
		return
	}
	if tv, ok := info.Types[rhs]; ok && tv.IsNil() {
		return // f = nil: calling it panics, nothing to resolve
	}
	e := rhs
	for {
		if p, ok := e.(*ast.ParenExpr); ok {
			e = p.X
			continue
		}
		// A conversion to a func type wraps the value without changing
		// the target: unwrap H(f).
		if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
			if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
				e = call.Args[0]
				continue
			}
		}
		break
	}
	switch e := e.(type) {
	case *ast.FuncLit:
		idx.bindings[v] = append(idx.bindings[v], CalleeEdge{Lit: e})
		return
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.IndexListExpr:
		var id *ast.Ident
		switch e := unwrapCallee(e).(type) {
		case *ast.Ident:
			id = e
		case *ast.SelectorExpr:
			id = e.Sel
		}
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			idx.bindings[v] = append(idx.bindings[v], CalleeEdge{Fn: obj.Origin()})
			return
		case *types.Var:
			if isTrackableLocal(obj) {
				idx.aliases[v] = append(idx.aliases[v], obj)
				return
			}
			if obj.IsField() && fieldKind(obj.Type()) != fieldUntracked {
				// f := x.onDrain: resolved through the field-flow layer.
				idx.fieldSrc[v] = append(idx.fieldSrc[v], obj.Origin())
				return
			}
		}
	}
	idx.tainted[v] = true
}

// recordRangeFieldSrc binds a range value variable to the func-container
// field it iterates, reporting whether the binding was recorded.
func (idx *devirtIndex) recordRangeFieldSrc(info *types.Info, value, x ast.Expr) bool {
	if value == nil {
		return false
	}
	v := localFuncVar(info, value)
	if v == nil {
		return false
	}
	fv, _ := funcBearingField(info, x)
	if fv == nil || fieldKind(fv.Type()) != fieldContainer {
		return false
	}
	idx.fieldSrc[v] = append(idx.fieldSrc[v], fv)
	return true
}

// taintIdent marks a func-typed local as untrackable when the tracking
// cannot prove its binding set complete.
func (idx *devirtIndex) taintIdent(info *types.Info, e ast.Expr) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return
	}
	if v := localFuncVar(info, id); v != nil {
		idx.tainted[v] = true
	}
}

// localFuncVar resolves an expression to the function-scope func-typed
// local it names, nil for anything else.
func localFuncVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	v, ok := info.ObjectOf(id).(*types.Var)
	if !ok || !isTrackableLocal(v) {
		return nil
	}
	return v
}

// unwrapCallee strips parens and generic instantiation indexes from a
// callee expression: (helper[int]) resolves like helper.
func unwrapCallee(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return e
		}
	}
}
