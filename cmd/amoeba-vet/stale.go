package main

import (
	"fmt"
	"go/token"
	"os"

	"amoeba/internal/analysis"
)

// staleEntry is one suppression annotation whose liveness the audit
// checks: an //amoeba:allow <analyzer>, an //amoeba:allowalloc(reason),
// or an //amoeba:shardsafe boundary.
type staleEntry struct {
	pos  token.Position
	kind string
}

// reportStale re-runs the analyzers in audit mode over the selected
// packages, collects the set of suppression annotations that still
// suppress (or shield) at least one finding, and reports the inventory
// remainder — annotations that have gone stale. A non-empty remainder
// exits 1 so CI can gate on a clean inventory.
//
// The inventory covers only files the analyzers see: non-test Go files
// of the selected packages. Declarative contract markers (//amoeba:shard,
// //amoeba:bounded) are enforced, not suppressive, and are not audited.
func reportStale(patterns []string) error {
	modRoot, modPath, paths, err := modulePackages(patterns)
	if err != nil {
		return err
	}
	resolve := analysis.ModuleResolver(modRoot, modPath)
	loader := analysis.NewLoader(resolve)
	used, err := analysis.RunAudit(loader, paths, analyzers)
	if err != nil {
		return err
	}
	inventory, err := staleInventory(resolve, paths)
	if err != nil {
		return err
	}
	// allowalloc annotations may suppress compiler-proven allocations
	// that alloccheck's syntactic audit never fires on, so the escape
	// pipeline gets a crediting pass of its own. When the pinned
	// toolchain is unavailable the pass is skipped and allowalloc
	// staleness is left unjudged rather than misreported.
	escUsed, escOK, err := escapeAllowsUsed(modRoot, patterns)
	if err != nil {
		return err
	}
	var stale []staleEntry
	for _, s := range inventory {
		if used[s.pos.Filename][s.pos.Line] {
			continue
		}
		if s.kind == "//amoeba:allowalloc" {
			if !escOK || escUsed[s.pos.Filename][s.pos.Line] {
				continue
			}
		}
		stale = append(stale, s)
	}
	for _, s := range stale {
		fmt.Printf("%s:%d: stale %s: suppresses no current finding; delete it\n",
			s.pos.Filename, s.pos.Line, s.kind)
	}
	fmt.Printf("%d annotation(s) audited, %d stale\n", len(inventory), len(stale))
	if len(stale) > 0 {
		os.Exit(1)
	}
	return nil
}

// staleInventory collects every suppression annotation of the non-test
// Go files of each package, sorted by position.
func staleInventory(resolve func(string) (string, bool), paths []string) ([]staleEntry, error) {
	all, err := scanAnnotations(resolve, paths, false)
	if err != nil {
		return nil, err
	}
	var inventory []staleEntry
	for _, a := range all {
		switch a.marker {
		case "//amoeba:allow":
			inventory = append(inventory, staleEntry{pos: a.pos, kind: a.marker + " " + a.name})
		case "//amoeba:allowalloc", analysis.AnnotShardSafe:
			inventory = append(inventory, staleEntry{pos: a.pos, kind: a.marker})
		}
	}
	return inventory, nil
}
