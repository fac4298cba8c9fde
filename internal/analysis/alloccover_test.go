package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestAllocAnnotationCoverage is the runtime↔static cross-check of the
// noalloc contract: the set of //amoeba:noalloc functions and the union
// of //amoeba:alloctest markers on AllocsPerRun tests must be equal.
//
//   - An annotated function with no alloctest marker means the static
//     contract has no runtime assertion behind it.
//   - A marker naming an unannotated function means an AllocsPerRun
//     test covers a path alloccheck no longer screens — the annotation
//     was removed (or misspelled) without retiring the test.
//   - A test calling testing.AllocsPerRun without any marker is opting
//     out of the inventory, which would let the first gap reopen.
//
// Names are qualified as pkg.Recv.Name for methods (receiver type
// without the star) and pkg.Name for functions, using the package base
// name — unique across this module.
func TestAllocAnnotationCoverage(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()

	annotated := map[string][]string{} // qualified name -> file positions
	tested := map[string][]string{}    // qualified name -> marker positions

	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if strings.HasSuffix(path, "_test.go") {
			collectAllocTests(t, fset, file, rel, tested)
		} else {
			collectNoalloc(fset, file, rel, annotated)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(annotated) == 0 {
		t.Fatal("no //amoeba:noalloc functions found — the walk is broken")
	}

	for name, positions := range annotated {
		if len(tested[name]) == 0 {
			t.Errorf("%s (%s) is //amoeba:noalloc but no AllocsPerRun test claims it "+
				"with an //amoeba:alloctest marker", name, positions[0])
		}
	}
	for name, positions := range tested {
		if len(annotated[name]) == 0 {
			t.Errorf("%s is listed by an //amoeba:alloctest marker (%s) but no "+
				"//amoeba:noalloc function with that qualified name exists", name, positions[0])
		}
	}
}

// collectNoalloc records the qualified names of the file's
// //amoeba:noalloc functions.
func collectNoalloc(fset *token.FileSet, file *ast.File, rel string, out map[string][]string) {
	for _, decl := range MarkedFuncs(fset, file, AnnotNoAlloc) {
		name := file.Name.Name + "." + DeclName(decl)
		pos := rel + ":" + strconv.Itoa(fset.Position(decl.Pos()).Line)
		out[name] = append(out[name], pos)
	}
}

// collectAllocTests records the names listed by the file's
// //amoeba:alloctest markers and fails the test for any function that
// calls testing.AllocsPerRun without carrying a marker.
func collectAllocTests(t *testing.T, fset *token.FileSet, file *ast.File, rel string, out map[string][]string) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest, found := strings.CutPrefix(c.Text, AnnotAllocTest)
			if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
				continue
			}
			pos := rel + ":" + strconv.Itoa(fset.Position(c.Pos()).Line)
			names := strings.Fields(rest)
			if len(names) == 0 {
				t.Errorf("%s: //amoeba:alloctest marker lists no function names", pos)
			}
			for _, name := range names {
				out[name] = append(out[name], pos)
			}
		}
	}
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || !callsAllocsPerRun(fd) {
			continue
		}
		if !FuncMarked(fset, file, fd, AnnotAllocTest) {
			t.Errorf("%s: %s calls testing.AllocsPerRun without an //amoeba:alloctest marker "+
				"naming the //amoeba:noalloc functions it exercises",
				rel, fd.Name.Name)
		}
	}
}

// callsAllocsPerRun reports whether the declaration's body contains a
// testing.AllocsPerRun call (syntactically — any AllocsPerRun selector).
func callsAllocsPerRun(fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "AllocsPerRun" {
			found = true
		}
		return !found
	})
	return found
}

// moduleRoot finds the enclosing module's root directory.
func moduleRoot(t *testing.T) string {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test's working directory")
		}
		dir = parent
	}
}

// TestAllocAnnotationInventory prints the contract inventory when -v is
// set — a quick way to see which test vouches for which function.
func TestAllocAnnotationInventory(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("inventory listing only under -v")
	}
	root := moduleRoot(t)
	fset := token.NewFileSet()
	tested := map[string][]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		collectAllocTests(t, fset, file, rel, tested)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(tested))
	for name := range tested {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Logf("%-40s %s", name, strings.Join(tested[name], " "))
	}
}
