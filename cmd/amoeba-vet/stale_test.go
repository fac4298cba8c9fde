package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"amoeba/internal/analysis"
)

// TestStaleAudit runs the audit machinery over the staleuser fixture:
// every annotation whose reason text contains "stale:" must be reported
// stale, every other one must be credited as live. The fixture covers
// all three audited kinds — //amoeba:allow, //amoeba:allowalloc, and
// //amoeba:shardsafe boundaries.
func TestStaleAudit(t *testing.T) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(path string) (string, bool) {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, true
		}
		return "", false
	}
	loader := analysis.NewLoader(resolve)
	used, err := analysis.RunAudit(loader, []string{"staleuser"}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	inventory, err := staleInventory(resolve, []string{"staleuser"})
	if err != nil {
		t.Fatal(err)
	}
	if len(inventory) != 7 {
		t.Fatalf("inventory has %d annotations, want 7: %+v", len(inventory), inventory)
	}
	sources := make(map[string][]string)
	for _, s := range inventory {
		lines, ok := sources[s.pos.Filename]
		if !ok {
			data, err := os.ReadFile(s.pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			lines = strings.Split(string(data), "\n")
			sources[s.pos.Filename] = lines
		}
		wantStale := strings.Contains(lines[s.pos.Line-1], "stale:")
		gotStale := !used[s.pos.Filename][s.pos.Line]
		if wantStale != gotStale {
			t.Errorf("%s:%d (%s): stale = %v, want %v",
				s.pos.Filename, s.pos.Line, s.kind, gotStale, wantStale)
		}
	}
}
