package analysis

// Hot-path and concurrency contract annotations. The comment forms mark
// the static side of the repository's performance contracts (DESIGN.md
// §11) and concurrency contracts (DESIGN.md §12):
//
//	//amoeba:noalloc
//	    on a function's doc comment: the function must not allocate in
//	    steady state. alloccheck screens its body for allocation-inducing
//	    constructs; the runtime half of the contract is an AllocsPerRun
//	    assertion tied back by //amoeba:alloctest markers.
//
//	//amoeba:allowalloc(reason)
//	    on (or directly above) a flagged line inside a noalloc function:
//	    the construct is deliberate — almost always amortised backing-array
//	    growth. The reason is mandatory; amoeba-vet -suppressions audits
//	    the inventory and fails on an empty one.
//
//	//amoeba:hotpath
//	    on a function's doc comment: the function runs inside simulator
//	    callbacks even though it has no allocation assertion. hotpath
//	    roots its call-graph walk here (in addition to noalloc functions
//	    and literal callback arguments).
//
//	//amoeba:enum
//	    on a type declaration: the type is a closed enumeration — every
//	    switch over it must name all members (exhaustive). On a constant
//	    type the members are the package-level constants of that exact
//	    type; on an interface they are the implementing named types of
//	    the defining package.
//
//	//amoeba:alloctest pkg.Recv.Name pkg.Name ...
//	    on a test function holding an AllocsPerRun assertion: the
//	    space-separated qualified names of the //amoeba:noalloc functions
//	    the assertion exercises (package base name, receiver type without
//	    the star, function name). TestAllocAnnotationCoverage keeps the
//	    union of these markers and the annotation set equal in both
//	    directions, so neither side can drift.
//
//	//amoeba:shard
//	    on a function's doc comment: the function is a per-worker shard
//	    body of a parallel sweep. shardsafe roots its call-graph walk
//	    here and certifies that the function (and everything it reaches)
//	    shares no mutable state with sibling workers except through
//	    channels passed in as parameters.
//
//	//amoeba:shardsafe
//	    on a function's doc comment: the function is an audited
//	    concurrency-safe API boundary — internally synchronised shared
//	    state that shard workers may call into (the singleflight memo is
//	    the canonical example). shardsafe stops its walk here and trusts
//	    the audit; the trailing note should say what makes it safe.
//
//	//amoeba:bounded p1 p2 ...
//	    on a function's doc comment: the named channel-typed parameters
//	    must be handed channels whose make capacity is a named constant.
//	    chancheck enforces the contract at every statically resolvable
//	    call site, so worker-pool queue depths stay auditable numbers
//	    rather than data-dependent expressions.

import (
	"go/ast"
	"go/token"
	"strings"
)

// Function-level annotation markers.
const (
	AnnotNoAlloc   = "//amoeba:noalloc"
	AnnotHotpath   = "//amoeba:hotpath"
	AnnotEnum      = "//amoeba:enum"
	AnnotAllocTest = "//amoeba:alloctest"
	AnnotShard     = "//amoeba:shard"
	AnnotShardSafe = "//amoeba:shardsafe"
	AnnotBounded   = "//amoeba:bounded"
)

// ParseBounded parses an //amoeba:bounded comment into the parameter
// names it declares. ok reports that the marker is present; the name
// list is empty when the marker names no parameters (chancheck treats
// that as a grammar error at the declaration).
func ParseBounded(text string) (params []string, ok bool) {
	body, found := strings.CutPrefix(text, AnnotBounded)
	if !found {
		return nil, false
	}
	if body != "" && body[0] != ' ' && body[0] != '\t' {
		return nil, false // exact-prefix rule: //amoeba:boundedX is not the marker
	}
	return strings.Fields(body), true
}

// BoundedParams returns the parameter names declared by an
// //amoeba:bounded marker on the function declaration, and whether the
// marker is present at all.
func BoundedParams(fset *token.FileSet, file *ast.File, decl *ast.FuncDecl) ([]string, bool) {
	for _, cg := range commentGroupsFor(fset, file, decl) {
		for _, c := range cg.List {
			if params, ok := ParseBounded(c.Text); ok {
				return params, true
			}
		}
	}
	return nil, false
}

// commentGroupsFor collects the doc group of a declaration plus any
// free-standing comment group ending on the line directly above it or
// on its own line: the attachment rule of every function marker.
func commentGroupsFor(fset *token.FileSet, file *ast.File, decl *ast.FuncDecl) []*ast.CommentGroup {
	var out []*ast.CommentGroup
	if decl.Doc != nil {
		out = append(out, decl.Doc)
	}
	declLine := fset.Position(decl.Pos()).Line
	for _, cg := range file.Comments {
		if cg == decl.Doc {
			continue
		}
		end := fset.Position(cg.End()).Line
		if end == declLine-1 || end == declLine {
			out = append(out, cg)
		}
	}
	return out
}

// ParseAllowAlloc parses an //amoeba:allowalloc(reason) comment. ok
// reports that the annotation is present; reason is empty when the
// parentheses are missing or hold only whitespace (the -suppressions
// audit treats that as an error).
func ParseAllowAlloc(text string) (reason string, ok bool) {
	body, found := strings.CutPrefix(text, "//amoeba:allowalloc")
	if !found {
		return "", false
	}
	body = strings.TrimSpace(body)
	if !strings.HasPrefix(body, "(") || !strings.HasSuffix(body, ")") {
		return "", true
	}
	return strings.TrimSpace(body[1 : len(body)-1]), true
}

// markerIn returns the position of the comment line of cg that is the
// marker (trailing text after the marker is tolerated so a
// justification can follow on the same line), or token.NoPos.
func markerIn(cg *ast.CommentGroup, marker string) token.Pos {
	if cg == nil {
		return token.NoPos
	}
	for _, c := range cg.List {
		if c.Text == marker || strings.HasPrefix(c.Text, marker+" ") {
			return c.Pos()
		}
	}
	return token.NoPos
}

func commentMarks(cg *ast.CommentGroup, marker string) bool {
	return markerIn(cg, marker) != token.NoPos
}

// FuncMarked reports whether the function declaration carries the marker
// in its doc group, or in any free-standing comment group of the file
// that ends on the line directly above the declaration (the form that
// survives between a //go:build constraint block and the func line).
func FuncMarked(fset *token.FileSet, file *ast.File, decl *ast.FuncDecl, marker string) bool {
	return FuncMarkerPos(fset, file, decl, marker) != token.NoPos
}

// FuncMarkerPos returns the position of the marker comment attached to
// the function declaration (same attachment rule as FuncMarked), or
// token.NoPos when the declaration does not carry the marker. The
// position identifies the annotation itself, so audit drivers can credit
// it as used.
func FuncMarkerPos(fset *token.FileSet, file *ast.File, decl *ast.FuncDecl, marker string) token.Pos {
	for _, cg := range commentGroupsFor(fset, file, decl) {
		if pos := markerIn(cg, marker); pos != token.NoPos {
			return pos
		}
	}
	return token.NoPos
}

// TypeMarked reports whether the type declaration carries the marker,
// either on the TypeSpec's own doc or on the enclosing GenDecl's doc
// (`//amoeba:enum` above a single-spec `type Foo int` attaches to the
// GenDecl).
func TypeMarked(gen *ast.GenDecl, spec *ast.TypeSpec, marker string) bool {
	return commentMarks(spec.Doc, marker) || commentMarks(spec.Comment, marker) ||
		(gen != nil && len(gen.Specs) == 1 && commentMarks(gen.Doc, marker))
}

// MarkedFuncs returns the file's function declarations carrying the
// marker annotation.
func MarkedFuncs(fset *token.FileSet, file *ast.File, marker string) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if FuncMarked(fset, file, fd, marker) {
			out = append(out, fd)
		}
	}
	return out
}
