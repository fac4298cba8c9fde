package analysis

// Field-sensitive func-value flow (DESIGN.md §16): the module-wide
// propagation pass that closes the last documented call-graph blind spot
// of the walkers — func values stored in struct fields (g.onDrain bound
// at construction and invoked later, callbacks parked in config structs,
// handler slices on sinks and worker cells).
//
// The devirt layer (devirt.go) tracks func values bound to *locals*; a
// value written into a struct field escaped that tracking, so a call
// through the field resolved to nothing and hotpath/shardsafe silently
// stopped. This pass scans the whole devirtualization universe once and
// builds, for every func-bearing field of every named struct type, the
// set of func values the module ever stores there:
//
//   - composite literals, keyed and positional: engine{onDrain: drain},
//     including literals nested in slices/maps and constructor returns;
//   - field assignments: e.onDrain = drain, e.handlers[0] = f,
//     e.byName["k"] = f, and e.handlers = append(e.handlers, f);
//   - container fields ([]func, [N]func, map[K]func) collect their
//     element values; the per-field edge set is the union over elements;
//   - field-to-field flow: e.onDrain = cfg.OnDrain records an alias, so
//     callbacks threaded through config structs resolve transitively;
//   - locals with a provably complete binding set on the right-hand
//     side resolve through the devirt tracking.
//
// The pass is field-sensitive but instance-insensitive: all values of a
// struct type share one edge set per field, the standard call-graph
// over-approximation. A field is *tainted* — resolves to no edges, so
// the walkers stop exactly as they did before this layer existed — the
// moment any write in the universe puts an opaque value in it: a
// parameter, a call result, an untrackable expression, a whole opaque
// slice/map, an append with ellipsis, or its address being taken.
// Interface-typed fields are not tracked here at all: calls through them
// are interface dispatch, which the devirt class-hierarchy index already
// resolves.
//
// Resolved edges carry Via labels naming the field hop, e.g.
// "field engine.onDrain => drain" or
// "field engine.onDrain => field config.OnDrain => function literal",
// which the walkers splice into their diagnostic chains. Function
// literals bound to fields carry the package whose syntax covers them
// (CalleeEdge.LitPkg), so a walker can analyze the literal's body in the
// right type-checking context even when the registration site lives in
// another package.
//
// Residual caveat, shared with the devirt live-type index: the universe
// of one pass is the analyzed package plus its transitive module-local
// imports. A write performed by a package that *imports* the defining
// package is invisible to passes that cannot see that importer; the
// full-module amoeba-vet sweep analyzes every package in turn, so every
// write site is covered by the passes rooted where it matters.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// fieldIndex is the lazily built module-wide field-flow state.
type fieldIndex struct {
	bindings  map[*types.Var][]CalleeEdge // field origin -> raw stored values
	aliases   map[*types.Var][]*types.Var // field origin -> source field origins
	localSrc  map[*types.Var][]*types.Var // field origin -> trackable local sources
	tainted   map[*types.Var]bool
	label     map[*types.Var]string // field origin -> "engine.onDrain"
	resolved  map[*types.Var]fieldResult
	resolving map[*types.Var]bool
}

// fieldResult memoizes one field's resolution: its labeled edge set and
// whether the binding set is provably complete.
type fieldResult struct {
	edges []CalleeEdge
	sound bool
}

// fieldIndexOf returns the field index, scanning the universe on first
// use.
func (r *Resolver) fieldIndexOf() *fieldIndex {
	idx := r.index()
	if idx.fields == nil {
		idx.fields = &fieldIndex{
			bindings:  make(map[*types.Var][]CalleeEdge),
			aliases:   make(map[*types.Var][]*types.Var),
			localSrc:  make(map[*types.Var][]*types.Var),
			tainted:   make(map[*types.Var]bool),
			label:     make(map[*types.Var]string),
			resolved:  make(map[*types.Var]fieldResult),
			resolving: make(map[*types.Var]bool),
		}
		idx.fields.scan(idx.univ)
	}
	return idx.fields
}

// fieldEdges resolves a call or func-value use of a struct field to the
// func values the module stores in that field, each edge labeled with the
// field hop. nil when the field is tainted or no write was seen (the
// value must come from somewhere the tracking cannot follow — same
// contract as funcVarEdges).
func (r *Resolver) fieldEdges(f *types.Var) []CalleeEdge {
	f = f.Origin()
	if fieldKind(f.Type()) == fieldUntracked {
		return nil
	}
	fi := r.fieldIndexOf()
	edges, sound := fi.resolve(r, f)
	if !sound {
		return nil
	}
	if edges == nil {
		edges = []CalleeEdge{} // complete-but-empty (nil stores, cycle head): not unsound
	}
	return edges
}

// Field classification: the flow tracks func-typed fields and
// slice/array/map fields holding funcs (their element values).
const (
	fieldUntracked = iota
	fieldFunc
	fieldContainer
)

func fieldKind(t types.Type) int {
	switch u := types.Unalias(t).Underlying().(type) {
	case *types.Signature:
		return fieldFunc
	case *types.Slice:
		if isFuncType(u.Elem()) {
			return fieldContainer
		}
	case *types.Array:
		if isFuncType(u.Elem()) {
			return fieldContainer
		}
	case *types.Map:
		if isFuncType(u.Elem()) {
			return fieldContainer
		}
	}
	return fieldUntracked
}

func isFuncType(t types.Type) bool {
	_, ok := types.Unalias(t).Underlying().(*types.Signature)
	return ok
}

// scan walks every file of the universe once, collecting field writes.
func (fi *fieldIndex) scan(univ []*pkgSyntax) {
	for _, ps := range univ {
		for _, f := range ps.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					fi.scanComposite(ps, n)
				case *ast.AssignStmt:
					fi.scanAssign(ps, n)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						// The field's address escaped: writes through the
						// pointer are untrackable.
						if fv := fieldSelTarget(ps.info, n.X); fv != nil {
							fi.tainted[fv] = true
						}
					}
				}
				return true
			})
		}
	}
}

// scanComposite records the func-bearing field values of one struct
// composite literal.
func (fi *fieldIndex) scanComposite(ps *pkgSyntax, lit *ast.CompositeLit) {
	t := ps.info.TypeOf(lit)
	if t == nil {
		return
	}
	t = types.Unalias(t)
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	owner := ""
	if named, ok := t.(*types.Named); ok {
		owner = named.Obj().Name()
	}
	for i, elt := range lit.Elts {
		var field *types.Var
		var value ast.Expr
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			fv, ok := ps.info.Uses[key].(*types.Var)
			if !ok || !fv.IsField() {
				continue
			}
			field, value = fv, kv.Value
		} else {
			if i >= st.NumFields() {
				continue
			}
			field, value = st.Field(i), elt
		}
		fi.recordField(ps, field, owner, value)
	}
}

// scanAssign records field writes performed by one assignment statement.
func (fi *fieldIndex) scanAssign(ps *pkgSyntax, n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		// Tuple assignment: the values are call results, untrackable.
		for _, lhs := range n.Lhs {
			if fv := fieldSelTarget(ps.info, lhs); fv != nil {
				fi.tainted[fv] = true
			}
		}
		return
	}
	for i, lhs := range n.Lhs {
		rhs := n.Rhs[i]
		lhs = ast.Unparen(lhs)
		// e.handlers[k] = f / e.byName["k"] = f: an element write.
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if fv, owner := funcBearingField(ps.info, ix.X); fv != nil && fieldKind(fv.Type()) == fieldContainer {
				fi.setLabel(fv, owner)
				fi.recordTarget(ps, fv, rhs)
			}
			continue
		}
		fv, owner := funcBearingField(ps.info, lhs)
		if fv == nil {
			continue
		}
		fi.recordField(ps, fv, owner, rhs)
	}
}

// recordField dispatches one field <- value pair on the field's kind.
func (fi *fieldIndex) recordField(ps *pkgSyntax, field *types.Var, owner string, value ast.Expr) {
	field = field.Origin()
	switch fieldKind(field.Type()) {
	case fieldFunc:
		fi.setLabel(field, owner)
		fi.recordTarget(ps, field, value)
	case fieldContainer:
		fi.setLabel(field, owner)
		fi.recordContainer(ps, field, value)
	}
}

// recordContainer records the elements a container field receives. An
// opaque whole-container value (anything but nil or a composite literal
// of known elements, or append over the field itself) taints the field.
func (fi *fieldIndex) recordContainer(ps *pkgSyntax, field *types.Var, value ast.Expr) {
	value = ast.Unparen(value)
	if tv, ok := ps.info.Types[value]; ok && tv.IsNil() {
		return
	}
	if lit, ok := value.(*ast.CompositeLit); ok {
		for _, elt := range lit.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			fi.recordTarget(ps, field, elt)
		}
		return
	}
	// e.handlers = append(e.handlers, f, g): growth of the field itself.
	if call, ok := value.(*ast.CallExpr); ok && len(call.Args) > 0 {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := ps.info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
				base, _ := funcBearingField(ps.info, call.Args[0])
				if base != nil && base.Origin() == field && !call.Ellipsis.IsValid() {
					for _, arg := range call.Args[1:] {
						fi.recordTarget(ps, field, arg)
					}
					return
				}
			}
		}
	}
	fi.tainted[field] = true
}

// recordTarget records one func value stored in a field, mirroring the
// devirt local-binding grammar: literals, named funcs and method values,
// conversions around them, field and trackable-local sources. Anything
// else taints the field.
func (fi *fieldIndex) recordTarget(ps *pkgSyntax, field *types.Var, e ast.Expr) {
	if tv, ok := ps.info.Types[e]; ok && tv.IsNil() {
		return // field = nil: calling it panics, nothing to resolve
	}
	for {
		if p, ok := e.(*ast.ParenExpr); ok {
			e = p.X
			continue
		}
		// A conversion to a func type wraps the value without changing
		// the target: unwrap H(f).
		if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
			if tv, ok := ps.info.Types[call.Fun]; ok && tv.IsType() {
				e = call.Args[0]
				continue
			}
		}
		break
	}
	switch e := e.(type) {
	case *ast.FuncLit:
		fi.bindings[field] = append(fi.bindings[field], CalleeEdge{Lit: e, LitPkg: ps.pkg})
		return
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.IndexListExpr:
		var id *ast.Ident
		switch e := unwrapCallee(e).(type) {
		case *ast.Ident:
			id = e
		case *ast.SelectorExpr:
			id = e.Sel
		}
		switch obj := ps.info.Uses[id].(type) {
		case *types.Func:
			fi.bindings[field] = append(fi.bindings[field], CalleeEdge{Fn: obj.Origin()})
			return
		case *types.Var:
			if obj.IsField() && fieldKind(obj.Type()) != fieldUntracked {
				fi.aliases[field] = append(fi.aliases[field], obj.Origin())
				return
			}
			if isTrackableLocal(obj) {
				fi.localSrc[field] = append(fi.localSrc[field], obj)
				return
			}
		}
	}
	fi.tainted[field] = true
}

// setLabel records the diagnostic label of a field once, first writer
// wins (the scan order is deterministic).
func (fi *fieldIndex) setLabel(field *types.Var, owner string) {
	field = field.Origin()
	if _, ok := fi.label[field]; ok {
		return
	}
	name := field.Name()
	if owner != "" {
		name = owner + "." + name
	}
	fi.label[field] = name
}

func (fi *fieldIndex) labelOf(field *types.Var) string {
	if l, ok := fi.label[field]; ok {
		return l
	}
	return field.Name()
}

// resolve computes the labeled edge set of one field: its direct
// bindings, plus everything flowing in through field aliases and
// trackable locals. sound is false when the set cannot be proven
// complete (a taint anywhere in the closure).
func (fi *fieldIndex) resolve(r *Resolver, field *types.Var) ([]CalleeEdge, bool) {
	if res, ok := fi.resolved[field]; ok {
		return res.edges, res.sound
	}
	if fi.resolving[field] {
		return nil, true // cycle: the first visit owns the result
	}
	fi.resolving[field] = true
	defer delete(fi.resolving, field)

	if fi.tainted[field] {
		fi.resolved[field] = fieldResult{sound: false}
		return nil, false
	}
	if len(fi.bindings[field]) == 0 && len(fi.aliases[field]) == 0 && len(fi.localSrc[field]) == 0 {
		// Never assigned anything we saw: the value comes from somewhere
		// the tracking cannot follow.
		fi.resolved[field] = fieldResult{sound: false}
		return nil, false
	}
	label := fi.labelOf(field)
	var out []CalleeEdge
	seen := make(map[string]bool)
	add := func(e CalleeEdge) {
		key := e.Via
		if !seen[key] {
			seen[key] = true
			out = append(out, e)
		}
	}
	for _, e := range fi.bindings[field] {
		for _, le := range fi.labelEdge(r, label, e) {
			add(le)
		}
	}
	for _, src := range fi.aliases[field] {
		sub, sound := fi.resolve(r, src)
		if !sound {
			fi.resolved[field] = fieldResult{sound: false}
			return nil, false
		}
		for _, e := range sub {
			e.Via = "field " + label + " => " + e.Via
			add(e)
		}
	}
	for _, v := range fi.localSrc[field] {
		raw := r.rawVarEdges(v)
		if raw == nil {
			fi.resolved[field] = fieldResult{sound: false}
			return nil, false
		}
		for _, e := range raw {
			if e.Lit != nil && e.LitPkg == nil {
				// A literal bound to the local and stored in the field:
				// callers resolving the field live anywhere in the module,
				// so the edge must carry the literal's defining package.
				e.LitPkg = v.Pkg()
			}
			for _, le := range fi.labelEdge(r, label, e) {
				add(le)
			}
		}
	}
	fi.resolved[field] = fieldResult{edges: out, sound: true}
	return out, true
}

// labelEdge renders one raw edge with the field hop prefixed, expanding
// interface method values against the devirt index.
func (fi *fieldIndex) labelEdge(r *Resolver, label string, e CalleeEdge) []CalleeEdge {
	switch {
	case e.Lit != nil:
		e.Via = "field " + label + " => function literal"
		return []CalleeEdge{e}
	case e.Via != "":
		e.Via = "field " + label + " => " + e.Via
		return []CalleeEdge{e}
	case e.Fn != nil:
		if sig, ok := e.Fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
			types.IsInterface(sig.Recv().Type().Underlying()) {
			return r.dispatchEdges(e.Fn, "field "+label)
		}
		e.Via = "field " + label + " => " + FuncDisplayName(r.pass.Pkg, e.Fn)
		return []CalleeEdge{e}
	}
	return nil
}

// fieldSelTarget resolves an expression (through parens, indexes, and
// stars) to the func-bearing struct field it denotes, for taint sites
// like &e.onDrain and &e.handlers[0]. nil when the expression is not a
// tracked field selection.
func fieldSelTarget(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			fv, _ := funcBearingField(info, e)
			return fv
		}
	}
}

// funcBearingField resolves a selector expression to a tracked struct
// field and the name of the selected type, (nil, "") otherwise.
func funcBearingField(info *types.Info, e ast.Expr) (*types.Var, string) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fv, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !fv.IsField() || fieldKind(fv.Type()) == fieldUntracked {
		return nil, ""
	}
	owner := ""
	if t := info.TypeOf(sel.X); t != nil {
		t = types.Unalias(t)
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
		}
		if named, ok := t.(*types.Named); ok {
			owner = named.Obj().Name()
		}
	}
	return fv.Origin(), owner
}
