package testonly_test

import (
	"testing"

	"aic/internal/analysis/analyzertest"
	"aic/internal/analysis/testonly"
)

func TestTestonly(t *testing.T) {
	analyzertest.Run(t, testonly.Analyzer, "tobad", "took")
}
