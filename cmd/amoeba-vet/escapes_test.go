package main

import (
	"encoding/json"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"amoeba/internal/analysis"
	"amoeba/internal/analysis/escapecheck"
)

// TestAnalyzerJSON pins the machine-readable finding shape: paths are
// module-relative with forward slashes, the via chain survives, and the
// suppression template names the right analyzer.
func TestAnalyzerJSON(t *testing.T) {
	d := analysis.Diagnostic{
		Analyzer: "hotpath",
		Pos:      token.Position{Filename: "/mod/internal/sim/sim.go", Line: 7, Column: 3},
		Message:  "call to time.Now via field engine.onDrain => drain",
		Via:      []string{"engine.onDrain", "drain"},
	}
	f := analyzerJSON("/mod", d)
	data, err := marshalFinding(f)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"analyzer":"hotpath","file":"internal/sim/sim.go","line":7,"col":3,` +
		`"message":"call to time.Now via field engine.onDrain => drain",` +
		`"via":["engine.onDrain","drain"],"suppress_with":"//amoeba:allow hotpath <reason>"}`
	if string(data) != want {
		t.Errorf("analyzerJSON marshals to\n%s\nwant\n%s", data, want)
	}

	// Site-local finding: via omitted entirely.
	d.Via = nil
	data, err = marshalFinding(analyzerJSON("/mod", d))
	if err != nil {
		t.Fatal(err)
	}
	var round map[string]any
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	if _, present := round["via"]; present {
		t.Errorf("empty via chain must be omitted, got %s", data)
	}
}

// TestEscapePipelineReplayedOutput builds a scratch module's package
// from inside its directory first, as a developer might, which leaves
// the go command a cached -m=2 output keyed for that build. The
// pipeline that -escapes and -stale share must still position every
// diagnostic by its module-relative file.
func TestEscapePipelineReplayedOutput(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	repoRoot, err := analysis.FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := escapecheck.GoModToolchain(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	if running, ok := escapecheck.RunningMatches(pinned); !ok {
		t.Skipf("WARNING: running toolchain %s is not the pinned %s", running, pinned)
	}
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":     "module scratch\n\ngo " + strings.TrimPrefix(escapecheck.Series(pinned), "go") + "\n",
		"sub/sub.go": "package sub\n\nvar sink *int\n\nfunc Box(i int) { sink = &i }\n",
	}
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	inside := exec.Command("go", "build", "-gcflags=-m=2", ".")
	inside.Dir = filepath.Join(dir, "sub")
	if out, err := inside.CombinedOutput(); err != nil {
		t.Fatalf("go build -gcflags=-m=2 in sub: %v\n%s", err, out)
	}
	_, diags, ok, err := escapePipeline(dir, []string{"./..."}, "replay test")
	if err != nil || !ok {
		t.Fatalf("escapePipeline: ok=%v err=%v", ok, err)
	}
	for _, d := range diags {
		if d.File == "sub/sub.go" && d.Message == "moved to heap: i" {
			return
		}
	}
	t.Errorf("no 'moved to heap: i' diagnostic at sub/sub.go; pipeline returned %v", diags)
}
