package lockio

import (
	"testing"

	"aic/internal/analysis/analyzertest"
)

func TestLockIO(t *testing.T) {
	analyzertest.Run(t, Analyzer, "lockbad", "lockok", "lockdeep")
}
