package escapecheck

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"amoeba/internal/analysis"
)

// repoToolchain reads the toolchain pinned by this repository's go.mod.
func repoToolchain(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	modRoot, err := analysis.FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := GoModToolchain(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	return pinned
}

// TestParseDiagsGolden pins the parser against recorded -m=2 output for
// the go.mod toolchain series. When the toolchain is repinned, this test
// skips with a warning until a fixture for the new series is recorded —
// wording drift must surface as a fixture to re-record, not as silently
// missed allocations.
func TestParseDiagsGolden(t *testing.T) {
	pinned := repoToolchain(t)
	path := filepath.Join("testdata", "diags_"+Series(pinned)+".txt")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		t.Skipf("WARNING: no golden escape-diagnostic fixture for toolchain %s: record %s from `go build -gcflags=-m=2` output", pinned, path)
	}
	if err != nil {
		t.Fatal(err)
	}
	got := ParseDiags(string(data))
	want := []Diag{
		{File: "pkg/a.go", Line: 27, Col: 37, Message: "int(k) escapes to heap"},
		{File: "pkg/b.go", Line: 8, Col: 2, Message: "moved to heap: buf"},
		{File: "pkg/b.go", Line: 21, Col: 19, Message: `fmt.Sprintf("x %d", ... argument...) escapes to heap`},
		{File: "pkg/c.go", Line: 9, Col: 11, Message: "func literal escapes to heap"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseDiags mismatch\n got: %v\nwant: %v", got, want)
	}
}

// TestParseDiagsTolerance keeps the parser narrow: unknown wording and
// malformed lines are ignored rather than misparsed.
func TestParseDiagsTolerance(t *testing.T) {
	input := "" +
		"pkg/a.go:1:2: something entirely new happens to heap-like storage\n" + // drifted wording: ignored
		"pkg/a.go:bad:2: x escapes to heap\n" + // malformed line number
		"not-a-go-file.txt:1:2: x escapes to heap\n" +
		"pkg/a.go:3:4:   escapes to heap\n" + // indented body
		"pkg/a.go:5:6: x does not escape\n" +
		"# pkg header\n" +
		"pkg/a.go:7:8: moved to heap: y\n"
	got := ParseDiags(input)
	want := []Diag{{File: "pkg/a.go", Line: 7, Col: 8, Message: "moved to heap: y"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseDiags = %v, want %v", got, want)
	}
}

// TestTrimModule pins the mapping from a -trimpath build's
// import-path-qualified files to the module-relative paths LoadSource
// records: module packages, the module root and positions inlined from
// another module package lose the module path; standard-library
// positions and a path that only shares the module's prefix keep theirs.
func TestTrimModule(t *testing.T) {
	in := []Diag{
		{File: "amoeba/internal/sim/sim.go", Line: 1},
		{File: "amoeba/amoeba.go", Line: 2},
		{File: "amoeba/internal/fifo/fifo.go", Line: 3},
		{File: "sort/sort.go", Line: 4},
		{File: "amoebax/a.go", Line: 5},
	}
	want := []string{"internal/sim/sim.go", "amoeba.go", "internal/fifo/fifo.go", "sort/sort.go", "amoebax/a.go"}
	got := TrimModule(in, "amoeba")
	for i, d := range got {
		if d.File != want[i] || d.Line != i+1 {
			t.Errorf("diag %d: %s:%d, want %s:%d", i, d.File, d.Line, want[i], i+1)
		}
	}
}

func TestSeries(t *testing.T) {
	cases := map[string]string{
		"go1.24.0": "go1.24",
		"go1.24":   "go1.24",
		"go1":      "go1",
		"go1.23.7": "go1.23",
	}
	for in, want := range cases {
		if got := Series(in); got != want {
			t.Errorf("Series(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestGoModToolchain(t *testing.T) {
	dir := t.TempDir()
	write := func(content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("module scratch\n\ngo 1.22\n\ntoolchain go1.24.0\n")
	if got, err := GoModToolchain(dir); err != nil || got != "go1.24.0" {
		t.Errorf("GoModToolchain = %q, %v; want go1.24.0", got, err)
	}
	write("module scratch\n\ngo 1.22\n")
	if got, err := GoModToolchain(dir); err != nil || got != "go1.22" {
		t.Errorf("GoModToolchain = %q, %v; want go1.22 fallback", got, err)
	}
}

// TestSourceCheck exercises range collection and intersection on a
// synthetic module tree: diagnostics inside noalloc bodies report,
// allowalloc lines suppress (own line and the next), diagnostics in
// unannotated functions and test files do not count.
func TestSourceCheck(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"kernel.go": `package scratch

//amoeba:noalloc
func Hot(v int) any {
	return v
}

func Cold(v int) any {
	return v
}

//amoeba:noalloc
func Guarded(v int) any {
	//amoeba:allowalloc(amortised: boxed once at startup)
	return v
}
`,
		"kernel_test.go": `package scratch

//amoeba:noalloc
func hotTestOnly(v int) any { return v }
`,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	src, err := LoadSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(src.Ranges) != 2 {
		t.Fatalf("got %d noalloc ranges, want 2 (test files excluded): %v", len(src.Ranges), src.Ranges)
	}
	diags := []Diag{
		{File: "kernel.go", Line: 5, Col: 9, Message: "v escapes to heap"},  // inside Hot
		{File: "kernel.go", Line: 9, Col: 9, Message: "v escapes to heap"},  // inside Cold: not noalloc
		{File: "kernel.go", Line: 15, Col: 9, Message: "v escapes to heap"}, // inside Guarded, line below allowalloc
		{File: "kernel_test.go", Line: 4, Col: 30, Message: "v escapes to heap"},
	}
	findings, suppressed := src.Check(diags)
	if suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", suppressed)
	}
	if len(findings) != 1 || findings[0].Func != "Hot" || findings[0].Diag.Line != 5 {
		t.Errorf("findings = %v, want one finding in Hot at line 5", findings)
	}
}

// TestSourceRangeNames pins how a noalloc range names its function:
// receiver-qualified for methods, generic receivers without their type
// parameters.
func TestSourceRangeNames(t *testing.T) {
	dir := t.TempDir()
	src := `package scratch

type Box[K comparable, V any] struct{ m map[K]V }

//amoeba:noalloc
func (b *Box[K, V]) M() int { return len(b.m) }

//amoeba:noalloc
func Free() {}
`
	if err := os.WriteFile(filepath.Join(dir, "box.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range loaded.Ranges {
		got = append(got, r.Func)
	}
	if want := []string{"Box.M", "Free"}; !reflect.DeepEqual(got, want) {
		t.Errorf("range names = %v, want %v", got, want)
	}
}

// TestLiveEscapeDiags compiles a scratch module with the pinned
// toolchain, with -trimpath as amoeba-vet does, and checks the parser
// and TrimModule against the compiler's real output.
// Skips with a warning when the running toolchain is not the pinned one.
func TestLiveEscapeDiags(t *testing.T) {
	pinned := repoToolchain(t)
	running, ok := RunningMatches(pinned)
	if !ok {
		t.Skipf("WARNING: running toolchain %s is not the pinned %s; live escape wording unverified", running, pinned)
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool unavailable: %v", err)
	}
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"main.go": `package main

var sink *int

func box(i int) *int {
	return &i
}

func main() {
	sink = box(42)
}
`,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("go", "build", "-trimpath", "-gcflags=-m=2", "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -trimpath -gcflags=-m=2: %v\n%s", err, out)
	}
	for _, d := range TrimModule(ParseDiags(string(out)), "scratch") {
		if d.File == "main.go" && d.Message == "moved to heap: i" {
			return
		}
	}
	t.Errorf("no 'moved to heap: i' diagnostic parsed from live compiler output:\n%s", out)
}
