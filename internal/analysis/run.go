package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ModuleResolver returns a Resolve function mapping import paths inside
// modPath to directories under modRoot.
func ModuleResolver(modRoot, modPath string) func(string) (string, bool) {
	return func(path string) (string, bool) {
		if path == modPath {
			return modRoot, true
		}
		if rel, ok := strings.CutPrefix(path, modPath+"/"); ok {
			return filepath.Join(modRoot, filepath.FromSlash(rel)), true
		}
		return "", false
	}
}

// ModulePath reads the module path from the go.mod in modRoot.
func ModulePath(modRoot string) (string, error) {
	data, err := os.ReadFile(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s/go.mod", modRoot)
}

// FindModuleRoot walks upward from dir to the nearest directory holding a
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// ExpandPatterns turns go-tool-style package patterns ("./...",
// "./internal/sim", "amoeba/internal/engine") into a sorted list of
// import paths within the module. Directories named testdata, vendor, or
// starting with "." or "_" are skipped, as the go tool does.
func ExpandPatterns(modRoot, modPath string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./...", pat == "...":
			paths, err := walkPackages(modRoot, modPath, modRoot)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			dir, err := patternDir(modRoot, modPath, base)
			if err != nil {
				return nil, err
			}
			paths, err := walkPackages(modRoot, modPath, dir)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		default:
			dir, err := patternDir(modRoot, modPath, pat)
			if err != nil {
				return nil, err
			}
			if hasGoFiles(dir) {
				add(importPathFor(modRoot, modPath, dir))
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// patternDir maps one non-wildcard pattern to a directory.
func patternDir(modRoot, modPath, pat string) (string, error) {
	switch {
	case pat == "." || pat == "":
		return modRoot, nil
	case strings.HasPrefix(pat, "./"):
		return filepath.Join(modRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./"))), nil
	case pat == modPath:
		return modRoot, nil
	case strings.HasPrefix(pat, modPath+"/"):
		return filepath.Join(modRoot, filepath.FromSlash(strings.TrimPrefix(pat, modPath+"/"))), nil
	default:
		return "", fmt.Errorf("analysis: pattern %q is outside module %s", pat, modPath)
	}
}

func walkPackages(modRoot, modPath, start string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(start, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != start && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			out = append(out, importPathFor(modRoot, modPath, path))
		}
		return nil
	})
	return out, err
}

func importPathFor(modRoot, modPath, dir string) string {
	rel, err := filepath.Rel(modRoot, dir)
	if err != nil || rel == "." {
		return modPath
	}
	return modPath + "/" + filepath.ToSlash(rel)
}

func hasGoFiles(dir string) bool {
	names, err := goFilesIn(dir)
	return err == nil && len(names) > 0
}

// Run loads each package and applies each analyzer, returning all
// diagnostics sorted by position.
func Run(loader *Loader, paths []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	err := runPasses(loader, paths, analyzers, false, func(pass *Pass) {
		diags = append(diags, pass.Diagnostics()...)
	})
	if err != nil {
		return nil, err
	}
	sortDiagnostics(diags)
	return diags, nil
}

// RunAudit loads each package and applies each analyzer in audit mode,
// returning the (filename, line) set of every suppression annotation
// that suppressed — or, for //amoeba:shardsafe boundaries, still
// shields — a finding. Diagnostics are discarded: the audit only
// answers which annotations are still live, so the -stale driver can
// report the inventory remainder as dead weight.
func RunAudit(loader *Loader, paths []string, analyzers []*Analyzer) (map[string]map[int]bool, error) {
	used := make(map[string]map[int]bool)
	err := runPasses(loader, paths, analyzers, true, func(pass *Pass) {
		for _, p := range pass.UsedAnnotations() {
			if used[p.Filename] == nil {
				used[p.Filename] = make(map[int]bool)
			}
			used[p.Filename][p.Line] = true
		}
	})
	if err != nil {
		return nil, err
	}
	return used, nil
}

// runPasses runs each analyzer over each loaded package, handing every
// finished pass to done.
func runPasses(loader *Loader, paths []string, analyzers []*Analyzer, audit bool, done func(*Pass)) error {
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			return err
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      loader.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Deps:      loader.Loaded,
				Audit:     audit,
			}
			if err := a.Run(pass); err != nil {
				return fmt.Errorf("analysis: %s on %s: %w", a.Name, path, err)
			}
			done(pass)
		}
	}
	return nil
}
