package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"amoeba/internal/analysis"
	"amoeba/internal/analysis/escapecheck"
)

// A jsonFinding is the machine-readable form of one finding, emitted as
// newline-delimited JSON by -json. File paths are module-root-relative
// with forward slashes so CI can map them onto the checkout.
type jsonFinding struct {
	Analyzer string   `json:"analyzer"`
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Message  string   `json:"message"`
	Via      []string `json:"via,omitempty"`
	// SuppressWith is the annotation that would suppress this finding at
	// its site, with <reason> left for the author to justify.
	SuppressWith string `json:"suppress_with"`
}

// marshalFinding renders one finding without HTML escaping: via chains
// ("=>") and suppression templates ("<reason>") must read verbatim in
// terminals and CI annotations.
func marshalFinding(f jsonFinding) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(f); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

func emitJSON(f jsonFinding) {
	data, err := marshalFinding(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "amoeba-vet:", err)
		os.Exit(2)
	}
	fmt.Println(string(data))
}

// analyzerJSON converts an in-process analyzer diagnostic, relativizing
// its absolute position against the module root.
func analyzerJSON(modRoot string, d analysis.Diagnostic) jsonFinding {
	file := d.Pos.Filename
	if rel, err := filepath.Rel(modRoot, file); err == nil {
		file = filepath.ToSlash(rel)
	}
	return jsonFinding{
		Analyzer:     d.Analyzer,
		File:         file,
		Line:         d.Pos.Line,
		Col:          d.Pos.Column,
		Message:      d.Message,
		Via:          d.Via,
		SuppressWith: fmt.Sprintf("//amoeba:allow %s <reason>", d.Analyzer),
	}
}

// escapePipeline runs the steps -escapes and -stale share: the
// toolchain check, `go build -trimpath -gcflags=-m=2` of the patterns,
// and the noalloc geometry of the module. -trimpath makes the compiler
// print import-path-qualified files, the same in a fresh build and in
// output the go command replays from its cache (escapecheck.TrimModule).
// ok is false when the running toolchain is not the pinned one: the
// escape wording belongs to one compiler release, so the pipeline warns
// that what (the mode's work) is skipped instead of judging diagnostics
// the parser was never validated against.
func escapePipeline(modRoot string, patterns []string, what string) (src *escapecheck.Source, diags []escapecheck.Diag, ok bool, err error) {
	pinned, err := escapecheck.GoModToolchain(modRoot)
	if err != nil {
		return nil, nil, false, err
	}
	if running, match := escapecheck.RunningMatches(pinned); !match {
		fmt.Fprintf(os.Stderr, "amoeba-vet: %s: running toolchain %s is not the pinned %s\n",
			what, running, pinned)
		return nil, nil, false, nil
	}
	modPath, err := analysis.ModulePath(modRoot)
	if err != nil {
		return nil, nil, false, err
	}
	cmd := exec.Command("go", append([]string{"build", "-trimpath", "-gcflags=-m=2"}, patterns...)...)
	cmd.Dir = modRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, nil, false, fmt.Errorf("go build -trimpath -gcflags=-m=2: %v\n%s", err, out)
	}
	src, err = escapecheck.LoadSource(modRoot)
	if err != nil {
		return nil, nil, false, err
	}
	return src, escapecheck.TrimModule(escapecheck.ParseDiags(string(out)), modPath), true, nil
}

// escapeAllowsUsed runs the escapecheck pipeline for the -stale audit
// and returns the //amoeba:allowalloc annotation positions (absolute
// file -> line) that suppress a live compiler diagnostic. ok is false
// when the running toolchain is not the pinned one: compiler crediting
// is then unavailable and allowalloc staleness cannot be judged.
func escapeAllowsUsed(modRoot string, patterns []string) (used map[string]map[int]bool, ok bool, err error) {
	src, diags, ok, err := escapePipeline(modRoot, patterns, "allowalloc staleness not audited")
	if !ok {
		return nil, false, err
	}
	relUsed := src.UsedAllows(diags)
	used = make(map[string]map[int]bool, len(relUsed))
	for rel, lines := range relUsed {
		used[filepath.Join(modRoot, filepath.FromSlash(rel))] = lines
	}
	return used, true, nil
}

// runEscapes is the -escapes mode: compile the selected packages with
// -gcflags=-m=2 under the go.mod-pinned toolchain and report every
// compiler-proven heap allocation inside an //amoeba:noalloc body that
// an //amoeba:allowalloc annotation does not cover. Returns the process
// exit code (0 clean or skipped on toolchain mismatch, 1 findings, 2
// internal error).
func runEscapes(patterns []string, jsonOut bool) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "amoeba-vet:", err)
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	modRoot, err := analysis.FindModuleRoot(wd)
	if err != nil {
		return fail(err)
	}
	src, diags, ok, err := escapePipeline(modRoot, patterns, "-escapes skipped")
	if err != nil {
		return fail(err)
	}
	if !ok {
		return 0
	}
	findings, suppressed := src.Check(diags)
	for _, f := range findings {
		msg := fmt.Sprintf("compiler-proven allocation in //amoeba:noalloc %s: %s",
			f.Func, f.Diag.Message)
		if jsonOut {
			emitJSON(jsonFinding{
				Analyzer:     "escapecheck",
				File:         f.Diag.File,
				Line:         f.Diag.Line,
				Col:          f.Diag.Col,
				Message:      msg,
				SuppressWith: "//amoeba:allowalloc(<reason>)",
			})
		} else {
			fmt.Printf("%s:%d:%d: %s [escapecheck]\n", f.Diag.File, f.Diag.Line, f.Diag.Col, msg)
		}
	}
	fmt.Fprintf(os.Stderr,
		"amoeba-vet: escapecheck: %d noalloc range(s), %d heap diagnostic(s), %d finding(s), %d suppressed\n",
		len(src.Ranges), len(diags), len(findings), suppressed)
	if len(findings) > 0 {
		return 1
	}
	return 0
}
