// Command amoeba-vet is the repository's static-analysis multichecker: it
// runs the standard `go vet` suite followed by the twelve amoeba-specific
// analyzers that machine-check the determinism, concurrency, dimensional,
// and hot-path invariants the reproduction depends on:
//
//	nodeterminism  no wall-clock or global-rand calls in simulation code
//	seedflow       sim.RNG provenance: explicit seeds, no copies, no sharing
//	paniccheck     library panics must be errors, contracts, or invariants
//	lockcheck      no mutex held across sends, Wait, or goroutine spawns
//	unitcheck      dimensional soundness of internal/units arithmetic,
//	               conversions, and call sites
//	boundscheck    constants must respect //amoeba:range annotations
//	alloccheck     //amoeba:noalloc functions hold no allocation-inducing
//	               constructs (//amoeba:allowalloc(reason) escapes audited)
//	hotpath        mutexes and file/network I/O unreachable from kernel
//	               roots and simulator callbacks
//	exhaustive     switches over //amoeba:enum types name every member
//	shardsafe      //amoeba:shard workers reach no shared mutable state
//	               (stops at audited //amoeba:shardsafe boundaries)
//	goroleak       every go statement lifetime-bounded; per-element spawns
//	               need a pool or semaphore
//	chancheck      close by sender once, no send-after-close, and
//	               named-constant capacities at //amoeba:bounded params
//
// Two further checks round the count out to fourteen: the field-flow
// layer (internal/analysis/fieldflow.go) that hotpath and shardsafe walk
// through — func values stored in struct fields resolve to their stored
// callees, reported with "via field owner.field => ..." chains — and
// escapecheck, the -escapes mode below, which cross-checks
// //amoeba:noalloc bodies against the compiler's own escape analysis.
// Each rule has one owner: wall clocks and global math/rand are
// nodeterminism's alone (DESIGN.md §7).
//
// Usage:
//
//	go run ./cmd/amoeba-vet [-no-govet] [-json] [-escapes] [-suppressions] [-stale] [packages]
//
// Packages default to ./... and accept the go tool's pattern syntax
// restricted to this module. Exit codes are uniform across modes:
// 0 clean, 1 findings (or a failed audit), 2 internal error — so CI can
// gate on them. Findings are suppressed site-by-site with
// //amoeba:allow <analyzer> <reason> annotations (see internal/analysis).
//
// The -json flag emits findings as newline-delimited JSON instead of
// text, one object per finding with analyzer, file (module-relative),
// line, col, message, the via call chain when the analyzer tracked one,
// and the suppression annotation that would silence it. -json implies
// -no-govet: the standard suite has no structured output to merge.
//
// The -escapes mode runs the escapecheck cross-check instead of the
// in-process analyzers: it compiles the selected packages with
// `go build -gcflags=-m=2`, parses the compiler's heap-allocation
// diagnostics, and reports every allocation the compiler proves inside
// an //amoeba:noalloc body, including those behind calls and inlining
// that alloccheck's syntactic screen cannot see. Neither check subsumes
// the other: the compiler never reports append growth, which alloccheck
// flags. //amoeba:allowalloc(reason) suppresses a
// finding on its line or the next, and the suppressed count is reported
// for the audit trail. Because the diagnostic wording is tied to one
// compiler release, -escapes runs only under the toolchain go.mod pins
// and skips with a warning (exit 0) under any other.
//
// The -suppressions mode audits those annotations instead of running the
// analyzers: it lists every //amoeba:allow and //amoeba:allowalloc(reason)
// in the selected packages — test files included — with its analyzer and
// justification, and exits non-zero if any annotation lacks a reason. It
// also inventories the declarative concurrency markers — //amoeba:shard,
// //amoeba:shardsafe, and //amoeba:bounded — whose trailing text is a
// note (or, for bounded, the parameter list) rather than a mandatory
// reason: shard and bounded declare contracts the analyzers enforce, and
// shardsafe records an audited boundary whose note says who vouches for
// it. The inventory is the other half of the invariant contract: every
// escape hatch and every trusted boundary must be listable in one pass.
//
// The -stale mode closes the loop on that inventory: it re-runs the
// analyzers in audit mode, crediting every suppression annotation that
// still suppresses a finding (//amoeba:allow, //amoeba:allowalloc) or
// still shields one (//amoeba:shardsafe boundaries are walked through
// to test whether anything behind them would fire), then reports the
// remainder — annotations that no longer suppress anything and are dead
// weight to delete. Test files are excluded from the stale inventory:
// the analyzers never parse them, so their annotations cannot be
// audited. Run -stale over the whole module (./...): an annotation is
// credited by whichever pass reaches it, so narrowing the package set
// can misreport live annotations as stale. CI gates on zero stale
// markers.
package main

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"amoeba/internal/analysis"
	"amoeba/internal/analysis/alloccheck"
	"amoeba/internal/analysis/boundscheck"
	"amoeba/internal/analysis/chancheck"
	"amoeba/internal/analysis/exhaustive"
	"amoeba/internal/analysis/goroleak"
	"amoeba/internal/analysis/hotpath"
	"amoeba/internal/analysis/lockcheck"
	"amoeba/internal/analysis/nodeterminism"
	"amoeba/internal/analysis/paniccheck"
	"amoeba/internal/analysis/seedflow"
	"amoeba/internal/analysis/shardsafe"
	"amoeba/internal/analysis/unitcheck"
)

var analyzers = []*analysis.Analyzer{
	nodeterminism.Analyzer,
	seedflow.Analyzer,
	paniccheck.Analyzer,
	lockcheck.Analyzer,
	unitcheck.Analyzer,
	boundscheck.Analyzer,
	alloccheck.Analyzer,
	hotpath.Analyzer,
	exhaustive.Analyzer,
	shardsafe.Analyzer,
	goroleak.Analyzer,
	chancheck.Analyzer,
}

func main() {
	noGovet := flag.Bool("no-govet", false, "skip running the standard `go vet` suite first")
	list := flag.Bool("list", false, "list the amoeba analyzers and exit")
	suppressions := flag.Bool("suppressions", false,
		"list every //amoeba:allow annotation with its reason; fail on missing reasons")
	stale := flag.Bool("stale", false,
		"audit suppression annotations against the analyzers and fail on ones that no longer suppress any finding")
	escapes := flag.Bool("escapes", false,
		"cross-check //amoeba:noalloc bodies against the compiler's escape analysis (go build -gcflags=-m=2)")
	jsonOut := flag.Bool("json", false,
		"emit findings as newline-delimited JSON (implies -no-govet)")
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	if *suppressions {
		if err := reportSuppressions(patterns); err != nil {
			fmt.Fprintln(os.Stderr, "amoeba-vet:", err)
			os.Exit(2)
		}
		return
	}

	if *stale {
		if err := reportStale(patterns); err != nil {
			fmt.Fprintln(os.Stderr, "amoeba-vet:", err)
			os.Exit(2)
		}
		return
	}

	if *escapes {
		os.Exit(runEscapes(patterns, *jsonOut))
	}

	failed := false
	if !*noGovet && !*jsonOut {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			failed = true
		}
	}

	diags, modRoot, err := runAmoebaAnalyzers(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "amoeba-vet:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		if *jsonOut {
			emitJSON(analyzerJSON(modRoot, d))
		} else {
			fmt.Println(d)
		}
	}
	if failed || len(diags) > 0 {
		os.Exit(1)
	}
}

// modulePackages expands the package patterns against the enclosing
// module, returning the module root, module path, and import paths.
func modulePackages(patterns []string) (modRoot, modPath string, paths []string, err error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", "", nil, err
	}
	modRoot, err = analysis.FindModuleRoot(wd)
	if err != nil {
		return "", "", nil, err
	}
	modPath, err = analysis.ModulePath(modRoot)
	if err != nil {
		return "", "", nil, err
	}
	paths, err = analysis.ExpandPatterns(modRoot, modPath, patterns)
	return modRoot, modPath, paths, err
}

func runAmoebaAnalyzers(patterns []string) ([]analysis.Diagnostic, string, error) {
	modRoot, modPath, paths, err := modulePackages(patterns)
	if err != nil {
		return nil, "", err
	}
	loader := analysis.NewLoader(analysis.ModuleResolver(modRoot, modPath))
	diags, err := analysis.Run(loader, paths, analyzers)
	return diags, modRoot, err
}

// An annotation is one inventoried comment: an //amoeba:allow or
// //amoeba:allowalloc escape (reason mandatory), or a declarative
// concurrency marker — shard, shardsafe, bounded — whose trailing text
// is an optional note.
type annotation struct {
	pos    token.Position
	marker string // analysis.AnnotShard, "//amoeba:allow", ...
	name   string // the analyzer an //amoeba:allow names, else the marker's name
	reason string // justification, marker note, or bounded parameter list
}

// declared reports whether the annotation is a declarative marker,
// whose empty note is not an error.
func (a annotation) declared() bool {
	return a.marker == analysis.AnnotBounded || a.marker == analysis.AnnotShardSafe ||
		a.marker == analysis.AnnotShard
}

// markerNote parses a declarative marker comment, returning the trailing
// note. ok follows the exact-prefix rule: //amoeba:shardX is not
// //amoeba:shard.
func markerNote(text, marker string) (note string, ok bool) {
	body, found := strings.CutPrefix(text, marker)
	if !found {
		return "", false
	}
	if body != "" && body[0] != ' ' && body[0] != '\t' {
		return "", false
	}
	return strings.TrimSpace(body), true
}

// parseAnnotation classifies one comment, reporting false for anything
// that is not an annotation the inventories track.
func parseAnnotation(pos token.Position, text string) (annotation, bool) {
	if aname, reason, ok := analysis.ParseAllow(text); ok {
		return annotation{pos, "//amoeba:allow", aname, reason}, true
	}
	if reason, ok := analysis.ParseAllowAlloc(text); ok {
		return annotation{pos, "//amoeba:allowalloc", "allowalloc", reason}, true
	}
	if params, ok := analysis.ParseBounded(text); ok {
		return annotation{pos, analysis.AnnotBounded, "bounded", strings.Join(params, " ")}, true
	}
	// shardsafe before shard: the boundary rule keeps the shorter marker
	// from matching the longer one, but the order makes the intent
	// explicit.
	if note, ok := markerNote(text, analysis.AnnotShardSafe); ok {
		return annotation{pos, analysis.AnnotShardSafe, "shardsafe", note}, true
	}
	if note, ok := markerNote(text, analysis.AnnotShard); ok {
		return annotation{pos, analysis.AnnotShard, "shard", note}, true
	}
	return annotation{}, false
}

// scanAnnotations parses the Go files of each package — test files only
// when tests is set — and returns every annotation, sorted by position.
func scanAnnotations(resolve func(string) (string, bool), paths []string, tests bool) ([]annotation, error) {
	fset := token.NewFileSet()
	var all []annotation
	for _, path := range paths {
		dir, ok := resolve(path)
		if !ok {
			return nil, fmt.Errorf("cannot resolve package %q", path)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") ||
				(!tests && strings.HasSuffix(name, "_test.go")) {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil,
				parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if a, ok := parseAnnotation(fset.Position(c.Pos()), c.Text); ok {
						all = append(all, a)
					}
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].pos, all[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return all, nil
}

// reportSuppressions scans every Go file — tests included, since
// suppressions in tests gate invariants just the same — of the selected
// packages and prints the suppression inventory. Annotations without a
// justification fail the audit.
func reportSuppressions(patterns []string) error {
	modRoot, modPath, paths, err := modulePackages(patterns)
	if err != nil {
		return err
	}
	all, err := scanAnnotations(analysis.ModuleResolver(modRoot, modPath), paths, true)
	if err != nil {
		return err
	}
	missing := 0
	for _, s := range all {
		reason := s.reason
		if reason == "" {
			if s.declared() {
				reason = "(declared)"
			} else {
				reason = "<MISSING REASON>"
				missing++
			}
		}
		fmt.Printf("%s:%d: %-15s %s\n", s.pos.Filename, s.pos.Line, s.name, reason)
	}
	fmt.Printf("%d annotation(s)\n", len(all))
	if missing > 0 {
		fmt.Fprintf(os.Stderr, "amoeba-vet: %d suppression(s) lack a reason\n", missing)
		os.Exit(1)
	}
	return nil
}
