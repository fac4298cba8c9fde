package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// A Resolver maps type-checked function objects back to their syntax
// across the analyzed package and its loaded module-local dependencies.
// It is the mechanical half of a call-graph walk, indexing each
// package's declarations once; the Walker below is the other half and
// owns the per-walk state (memo table, cycle cut).
type Resolver struct {
	pass   *Pass
	decls  map[*types.Package]map[*types.Func]*ast.FuncDecl
	devirt *devirtIndex // lazily built by CalleeEdges (devirt.go)
}

// NewResolver returns a resolver over the pass's package and its loaded
// dependencies.
func NewResolver(pass *Pass) *Resolver {
	return &Resolver{
		pass:  pass,
		decls: make(map[*types.Package]map[*types.Func]*ast.FuncDecl),
	}
}

// FuncObj resolves an expression to a statically known function or
// concrete-receiver method. Interface-dispatched methods resolve to nil
// here; CalleeEdges devirtualizes them against the module-wide
// class-hierarchy index (devirt.go). Instantiated generic functions and
// methods normalize to their generic origin, so a call to helper[int]
// resolves to the declaration of helper.
func (r *Resolver) FuncObj(info *types.Info, e ast.Expr) *types.Func {
	var id *ast.Ident
	switch e := unwrapCallee(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type().Underlying()) {
			return nil // dynamic dispatch: resolved by CalleeEdges instead
		}
	}
	return fn
}

// DeclOf finds the syntax of a function in the analyzed package or in a
// loaded module-local dependency, indexing each package once. decl is
// nil when the defining package's syntax is unavailable (standard
// library) or the function has no declaration (synthesised wrappers).
func (r *Resolver) DeclOf(fn *types.Func) (decl *ast.FuncDecl, pkg *types.Package) {
	pkg = fn.Pkg()
	if idx, ok := r.decls[pkg]; ok {
		return idx[fn], pkg
	}
	files, info := r.syntaxOf(pkg)
	idx := make(map[*types.Func]*ast.FuncDecl)
	if info != nil {
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
						idx[obj] = fd
					}
				}
			}
		}
	}
	r.decls[pkg] = idx
	return idx[fn], pkg
}

// InfoOf returns the type info covering a package's syntax, nil when the
// package was not loaded from source.
func (r *Resolver) InfoOf(pkg *types.Package) *types.Info {
	_, info := r.syntaxOf(pkg)
	return info
}

// FileAt returns the syntax file of pkg containing pos, nil when the
// package's syntax is unavailable. Marker and //amoeba:allow annotations
// of a reached declaration, or of a function literal stored in a struct
// field of a dependency package, resolve against that file.
func (r *Resolver) FileAt(pkg *types.Package, pos token.Pos) *ast.File {
	files, _ := r.syntaxOf(pkg)
	for _, f := range files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

func (r *Resolver) syntaxOf(pkg *types.Package) ([]*ast.File, *types.Info) {
	switch {
	case pkg == r.pass.Pkg:
		return r.pass.Files, r.pass.TypesInfo
	case r.pass.Deps != nil:
		if dep, ok := r.pass.Deps(pkg.Path()); ok {
			return dep.Files, dep.Info
		}
	}
	return nil, nil
}

// FuncDisplayName qualifies a function for diagnostics: receiver-dotted
// for methods, package-prefixed when it lives outside cur.
func FuncDisplayName(cur *types.Package, fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := types.Unalias(rt).(*types.Pointer); ok {
			rt = p.Elem()
		}
		if n, ok := types.Unalias(rt).(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil && fn.Pkg() != cur {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// DeclName names a declaration for diagnostics: receiver-qualified for
// methods ("Box.M" for func (b *Box[K, V]) M()), bare for functions.
func DeclName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch e := t.(type) {
		case *ast.StarExpr:
			t = e.X
		case *ast.ParenExpr:
			t = e.X
		case *ast.IndexExpr: // generic receiver, e.g. Box[T]
			t = e.X
		case *ast.IndexListExpr: // generic receiver, e.g. Box[K, V]
			t = e.X
		case *ast.Ident:
			return e.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

// A Reach is one finding behind a walked function: Desc says what its
// rule flagged, and Chain is the call chain from the walked function to
// the flagged site, outermost first.
type Reach struct {
	Desc  string
	Chain []string
}

// A Walker is the reachability walk shared by hotpath and shardsafe. It
// follows every edge the Resolver can justify (static calls,
// devirtualized dispatch, func-valued locals and struct fields) and
// computes, per function, what the analyzer's rule flags in it and in
// everything it reaches: one Reach per distinct description, memoized
// across the package walk, with recursion cut at the first visit (which
// owns the result). Function literals stored in struct fields are walked
// in their defining package's type-checking context. An //amoeba:allow
// naming the analyzer at a flagged line or call inside a walked body
// suppresses that site for every root that reaches it: one annotation
// at the origin, not one per edge.
type Walker struct {
	Resolve *Resolver
	// Boundary, when set, decides how each reached declaration is
	// walked: it returns walk's findings, or cuts the walk at a trusted
	// boundary. shardsafe stops at //amoeba:shardsafe here.
	Boundary func(decl *ast.FuncDecl, file *ast.File, walk func() []Reach) []Reach

	pass   *Pass
	flag   func(info *types.Info, scope, n ast.Node) (desc string, ok bool)
	allows map[*ast.File]map[int][]allowAt
	memo   map[ast.Node][]Reach
	busy   map[ast.Node]bool
}

// NewWalker returns a walker for the pass's analyzer. flag is its rule:
// it classifies one node of a walked body, where scope is the enclosing
// declaration or function literal.
func NewWalker(pass *Pass, flag func(info *types.Info, scope, n ast.Node) (string, bool)) *Walker {
	return &Walker{
		Resolve: NewResolver(pass),
		pass:    pass,
		flag:    flag,
		allows:  make(map[*ast.File]map[int][]allowAt),
		memo:    make(map[ast.Node][]Reach),
		busy:    make(map[ast.Node]bool),
	}
}

// Root walks one root body of the analyzed package. A node the rule
// flags goes to direct; each finding behind a call goes to reach, its
// chain starting at the callee. Findings at the root are suppressed by
// the Pass's own //amoeba:allow filtering at the reported position.
func (w *Walker) Root(scope ast.Node, body *ast.BlockStmt,
	direct func(n ast.Node, desc string), reach func(call *ast.CallExpr, r Reach)) {
	if body == nil {
		return
	}
	info := w.pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		if desc, ok := w.flag(info, scope, n); ok {
			direct(n, desc)
			return true
		}
		if call, ok := n.(*ast.CallExpr); ok {
			for _, edge := range w.Resolve.CalleeEdges(info, call) {
				for _, r := range w.Reaches(edge) {
					reach(call, r)
				}
			}
		}
		return true
	})
}

// Reaches returns the findings behind one callee edge. A dynamic edge's
// label already names the callee a chain starts with, so it replaces the
// chain's head. Literals bound to a local yield nothing: the enclosing
// inspection walks their bodies inline.
func (w *Walker) Reaches(edge CalleeEdge) []Reach {
	var rs []Reach
	switch {
	case edge.Lit != nil && edge.LitPkg == nil:
		return nil
	case edge.Lit != nil:
		rs = w.walk(edge.Lit, edge.Lit.Body, edge.LitPkg, "function literal")
	default:
		decl, pkg := w.Resolve.DeclOf(edge.Fn)
		if decl == nil || decl.Body == nil {
			return nil // no syntax: the rule screens the stdlib surface at the call
		}
		rs = w.walk(decl, decl.Body, pkg, FuncDisplayName(w.pass.Pkg, edge.Fn))
	}
	if edge.Via == "" {
		return rs
	}
	out := make([]Reach, len(rs))
	for i, r := range rs {
		out[i] = Reach{Desc: r.Desc, Chain: append([]string{edge.Via}, r.Chain[1:]...)}
	}
	return out
}

// walk computes the memoized findings of one declaration or field-stored
// literal (scope) of pkg, with self as the chain head.
func (w *Walker) walk(scope ast.Node, body *ast.BlockStmt, pkg *types.Package, self string) []Reach {
	if rs, ok := w.memo[scope]; ok {
		return rs
	}
	if w.busy[scope] {
		return nil // cycle: the first visit owns the result
	}
	w.busy[scope] = true
	file := w.Resolve.FileAt(pkg, scope.Pos())
	scan := func() []Reach { return w.scan(scope, body, w.Resolve.InfoOf(pkg), file, self) }
	var out []Reach
	if decl, ok := scope.(*ast.FuncDecl); ok && w.Boundary != nil {
		out = w.Boundary(decl, file, scan)
	} else {
		out = scan()
	}
	delete(w.busy, scope)
	w.memo[scope] = out
	return out
}

// scan inspects one walked body, collecting one Reach per distinct
// description. An allow covering a node is credited only when it
// suppresses something: the node is flagged, or the call reaches a
// finding. So an origin allow deeper in the walk wins over a call-site
// allow that would shadow it, and the call-site one reads as stale.
func (w *Walker) scan(scope ast.Node, body *ast.BlockStmt, info *types.Info, file *ast.File, self string) []Reach {
	var out []Reach
	seen := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		var found []Reach
		if desc, flagged := w.flag(info, scope, n); flagged {
			found = []Reach{{Desc: desc, Chain: []string{self}}}
		} else if call, ok := n.(*ast.CallExpr); ok {
			for _, edge := range w.Resolve.CalleeEdges(info, call) {
				for _, r := range w.Reaches(edge) {
					found = append(found, Reach{Desc: r.Desc, Chain: append([]string{self}, r.Chain...)})
				}
			}
		}
		if len(found) == 0 {
			return true
		}
		if pos, ok := w.allowed(file, n.Pos()); ok {
			w.pass.UseAnnotation(pos)
			return true
		}
		for _, r := range found {
			if !seen[r.Desc] {
				seen[r.Desc] = true
				out = append(out, r)
			}
		}
		return true
	})
	return out
}

// allowed reports whether an //amoeba:allow naming the analyzer (or
// "all") covers pos in a walked file, returning the annotation's
// position for Pass.UseAnnotation.
func (w *Walker) allowed(file *ast.File, pos token.Pos) (token.Pos, bool) {
	if file == nil {
		return token.NoPos, false
	}
	lines, ok := w.allows[file]
	if !ok {
		lines = allowLines(w.pass.Fset, file)
		w.allows[file] = lines
	}
	for _, a := range lines[w.pass.Fset.Position(pos).Line] {
		if a.name == w.pass.Analyzer.Name || a.name == "all" {
			return a.pos, true
		}
	}
	return token.NoPos, false
}
