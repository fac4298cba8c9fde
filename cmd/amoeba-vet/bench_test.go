package main

import "testing"

// BenchmarkAmoebaVetRepo times a full-module amoeba-vet sweep in the
// shipping configuration: devirtualization and the field-flow layer
// both on. CI fails the sweep above an absolute bound; the pinned
// number and its host live in BENCH_vet.json. Each iteration also
// asserts the sweep is clean, doubling as the zero-findings regression
// check.
func BenchmarkAmoebaVetRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		diags, _, err := runAmoebaAnalyzers([]string{"./..."})
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("repo sweep must be clean, got %d finding(s), first: %s",
				len(diags), diags[0])
		}
	}
}
