package nodeterminism_test

import (
	"testing"

	"amoeba/internal/analysis/analysistest"
	"amoeba/internal/analysis/nodeterminism"
)

func TestNoDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", nodeterminism.Analyzer, "simlib", "simhelper", "cmd/tool")
}
