package alloccheck_test

import (
	"testing"

	"amoeba/internal/analysis/alloccheck"
	"amoeba/internal/analysis/analysistest"
)

func TestAllocCheck(t *testing.T) {
	analysistest.Run(t, "testdata", alloccheck.Analyzer, "allocuser", "allocgeneric")
}
