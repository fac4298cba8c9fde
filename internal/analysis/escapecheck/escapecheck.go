// Package escapecheck cross-checks //amoeba:noalloc bodies against the
// Go compiler's own escape analysis. alloccheck (the syntactic half of
// the contract) screens for allocation-inducing constructs it can see in
// the AST; the compiler proves allocations the screen cannot see —
// interface boxing through generics and behind inlined calls, closures
// capturing by reference, values the optimizer decides must live on the
// heap. It is not a superset: the compiler never reports append growth,
// which only alloccheck flags, so the two checks stay side by side
// (DESIGN.md §7). This package parses the diagnostics of
// `go build -trimpath -gcflags=-m=2`, maps their import-path-qualified
// files to module-relative ones, intersects them with the source ranges
// of every noalloc function, and reports compiler-proven allocations the
// syntactic pass missed. //amoeba:allowalloc(reason)
// annotations suppress findings on their line or the line below, exactly
// as they do for alloccheck, and the driver reports the suppressed count
// so the escape inventory stays auditable.
//
// The diagnostic wording is not a stable compiler interface, so the
// parser is deliberately narrow — it recognizes only the two
// heap-allocation forms ("X escapes to heap", "moved to heap: x") and
// ignores everything else -m=2 prints (inlining decisions, parameter
// leaks, flow traces). The cmd/amoeba-vet -escapes driver refuses to run
// when the running toolchain is not the one pinned in go.mod, and the
// golden fixture test is keyed to the pinned version, so wording drift
// surfaces as a skip-with-warning plus a fixture to re-record rather
// than as silently missed allocations.
package escapecheck

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"amoeba/internal/analysis"
)

// A Diag is one heap-allocation diagnostic from the compiler, positioned
// as the compiler prints it (file path relative to the build directory).
type Diag struct {
	File    string
	Line    int
	Col     int
	Message string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", d.File, d.Line, d.Col, d.Message)
}

// ParseDiags extracts heap-allocation diagnostics from `go build
// -gcflags=-m=2` output. -m=2 prints each escape twice — once as a flow
// trace header ending in a colon, once plain — so exact duplicates
// collapse. Package headers ("# pkg"), indented flow-trace bodies, and
// every non-allocation diagnostic (inlining, leaking params) are
// ignored.
func ParseDiags(output string) []Diag {
	var out []Diag
	seen := make(map[Diag]bool)
	for _, line := range strings.Split(output, "\n") {
		d, ok := parseDiagLine(line)
		if !ok || seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, d)
	}
	return out
}

// parseDiagLine parses one "file.go:line:col: message" line, reporting
// false for anything that is not a heap-allocation diagnostic.
func parseDiagLine(line string) (Diag, bool) {
	file, rest, ok := strings.Cut(line, ":")
	if !ok || !strings.HasSuffix(file, ".go") {
		return Diag{}, false
	}
	lineno, rest, ok := cutInt(rest)
	if !ok {
		return Diag{}, false
	}
	col, rest, ok := cutInt(rest)
	if !ok {
		return Diag{}, false
	}
	msg, found := strings.CutPrefix(rest, " ")
	if !found || msg == "" {
		return Diag{}, false
	}
	if msg[0] == ' ' || msg[0] == '\t' {
		return Diag{}, false // indented -m=2 flow-trace body, not a diagnostic
	}
	msg = strings.TrimSuffix(msg, ":") // flow-trace header form
	if !isAllocMessage(msg) {
		return Diag{}, false
	}
	// Root-package files print as "./main.go"; Clean aligns them with
	// the module-relative paths LoadSource records.
	return Diag{File: path.Clean(file), Line: lineno, Col: col, Message: msg}, true
}

// TrimModule maps the files of diagnostics from a -trimpath build, which
// the compiler qualifies with their import path
// ("amoeba/internal/sim/sim.go"), to the module-relative paths
// LoadSource records ("internal/sim/sim.go"). A -trimpath build prints
// the same paths wherever it runs, and the go command replays them
// unchanged from its cache; without -trimpath, a cached package's output
// comes back with the paths of the build that filled the cache, such as
// "./sim.go" after a build inside internal/sim. Files outside the
// module, such as inlined standard-library positions, keep their paths
// and match no noalloc range.
func TrimModule(diags []Diag, modPath string) []Diag {
	prefix := modPath + "/"
	for i := range diags {
		if rel, ok := strings.CutPrefix(diags[i].File, prefix); ok {
			diags[i].File = rel
		}
	}
	return diags
}

// isAllocMessage recognizes the compiler's heap-allocation wording. The
// negative form is "X does not escape" (no "to heap"), so the suffix
// check cannot match it.
func isAllocMessage(msg string) bool {
	return strings.HasSuffix(msg, "escapes to heap") || strings.HasPrefix(msg, "moved to heap:")
}

// cutInt consumes one ":"-terminated integer field.
func cutInt(s string) (n int, rest string, ok bool) {
	field, rest, found := strings.Cut(s, ":")
	if !found {
		return 0, "", false
	}
	n, err := strconv.Atoi(field)
	if err != nil {
		return 0, "", false
	}
	return n, rest, true
}

// A Range is one //amoeba:noalloc function body, file path relative to
// the module root with forward slashes (how the compiler prints build
// paths).
type Range struct {
	File      string
	Func      string
	StartLine int
	EndLine   int
}

// A Finding is one compiler-proven allocation inside a noalloc body.
type Finding struct {
	Diag Diag
	Func string
}

// Source is the noalloc geometry of one module: the marked body ranges
// and the //amoeba:allowalloc suppression lines of every non-test file.
type Source struct {
	Ranges []Range
	// allows maps file -> covered line -> annotation line for every line
	// an //amoeba:allowalloc annotation covers (its own line and the
	// next, the same rule alloccheck applies). The annotation line is
	// kept so the -stale audit can credit the annotation itself.
	allows map[string]map[int]int
}

// LoadSource parses every non-test .go file under modRoot (skipping
// testdata, vendor, and dot-directories — the compiler never builds
// them) and collects the noalloc ranges and allowalloc lines.
func LoadSource(modRoot string) (*Source, error) {
	src := &Source{allows: make(map[string]map[int]int)}
	fset := token.NewFileSet()
	err := filepath.WalkDir(modRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != modRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return nil
		}
		rel, err := filepath.Rel(modRoot, path)
		if err != nil {
			return err
		}
		return src.loadFile(fset, path, filepath.ToSlash(rel))
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(src.Ranges, func(i, j int) bool {
		a, b := src.Ranges[i], src.Ranges[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.StartLine < b.StartLine
	})
	return src, nil
}

func (s *Source) loadFile(fset *token.FileSet, path, rel string) error {
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	for _, fd := range analysis.MarkedFuncs(fset, f, analysis.AnnotNoAlloc) {
		if fd.Body == nil {
			continue
		}
		s.Ranges = append(s.Ranges, Range{
			File:      rel,
			Func:      analysis.DeclName(fd),
			StartLine: fset.Position(fd.Pos()).Line,
			EndLine:   fset.Position(fd.Body.End()).Line,
		})
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if _, ok := analysis.ParseAllowAlloc(c.Text); !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			lines := s.allows[rel]
			if lines == nil {
				lines = make(map[int]int)
				s.allows[rel] = lines
			}
			lines[line] = line
			lines[line+1] = line
		}
	}
	return nil
}

// Check intersects compiler diagnostics with the noalloc ranges,
// returning the unsuppressed findings (in diagnostic order) and the
// count of allowalloc-suppressed ones.
func (s *Source) Check(diags []Diag) (findings []Finding, suppressed int) {
	for _, d := range diags {
		fn, ok := s.enclosing(d)
		if !ok {
			continue
		}
		if _, ok := s.allows[d.File][d.Line]; ok {
			suppressed++
			continue
		}
		findings = append(findings, Finding{Diag: d, Func: fn})
	}
	return findings, suppressed
}

// UsedAllows returns the //amoeba:allowalloc annotation positions
// (file -> annotation line -> true) that suppress at least one of diags
// inside a noalloc range — the crediting half of the -stale audit.
func (s *Source) UsedAllows(diags []Diag) map[string]map[int]bool {
	used := make(map[string]map[int]bool)
	for _, d := range diags {
		if _, ok := s.enclosing(d); !ok {
			continue
		}
		annot, ok := s.allows[d.File][d.Line]
		if !ok {
			continue
		}
		lines := used[d.File]
		if lines == nil {
			lines = make(map[int]bool)
			used[d.File] = lines
		}
		lines[annot] = true
	}
	return used
}

func (s *Source) enclosing(d Diag) (string, bool) {
	for _, r := range s.Ranges {
		if r.File == d.File && r.StartLine <= d.Line && d.Line <= r.EndLine {
			return r.Func, true
		}
	}
	return "", false
}
