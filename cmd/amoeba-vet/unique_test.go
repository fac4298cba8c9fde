package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"amoeba/internal/analysis"
)

// TestEveryAnalyzerCatchesSomethingUnique runs all twelve in-process
// analyzers over every package of every analyzer's testdata tree, and
// fails when an analyzer reports nothing at a (file, line) that no other
// analyzer also reports: every static check must catch something no
// other check does.
func TestEveryAnalyzerCatchesSomethingUnique(t *testing.T) {
	reporters := make(map[string]map[string]bool) // "file:line" -> analyzers
	for _, a := range analyzers {
		src := filepath.Join("..", "..", "internal", "analysis", a.Name, "testdata", "src")
		var paths []string
		err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if matches, _ := filepath.Glob(filepath.Join(path, "*.go")); len(matches) > 0 {
				rel, err := filepath.Rel(src, path)
				paths = append(paths, filepath.ToSlash(rel))
				return err
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s testdata: %v", a.Name, err)
		}
		loader := analysis.NewLoader(func(path string) (string, bool) {
			dir := filepath.Join(src, filepath.FromSlash(path))
			st, err := os.Stat(dir)
			return dir, err == nil && st.IsDir()
		})
		diags, err := analysis.Run(loader, paths, analyzers)
		if err != nil {
			t.Fatalf("%s testdata: %v", a.Name, err)
		}
		for _, d := range diags {
			at := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
			if reporters[at] == nil {
				reporters[at] = make(map[string]bool)
			}
			reporters[at][d.Analyzer] = true
		}
	}
	unique := make(map[string]int)
	for _, names := range reporters {
		if len(names) == 1 {
			for name := range names {
				unique[name]++
			}
		}
	}
	for _, a := range analyzers {
		if unique[a.Name] == 0 {
			t.Errorf("%s reports nothing at a testdata line that no other analyzer also reports", a.Name)
		}
	}
}
