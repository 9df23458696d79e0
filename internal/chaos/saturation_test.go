package chaos

import (
	"context"
	"strings"
	"testing"
)

// TestSaturationShedRecover is the adaptive-control acceptance test: the
// full saturate→shed→recover arc through the production stack, with the
// shed and the hysteresis recovery visible in the /metrics exposition.
func TestSaturationShedRecover(t *testing.T) {
	res, err := RunSaturation(context.Background())
	if err != nil {
		t.Fatalf("scenario infrastructure: %v", err)
	}
	if res.Failed() {
		t.Fatalf("%s\ntranscript:\n  %s", res.FailureReport(), strings.Join(res.Transcript, "\n  "))
	}
	if res.ShedSkips != 2 {
		t.Fatalf("shed skips = %v, want 2", res.ShedSkips)
	}
	// Spot-check the exposition carries the full stable surface, not just
	// the controller series.
	for _, series := range []string{
		"aic_fsstore_sync_duration_seconds_bucket",
		"aic_fsstore_put_duration_seconds_count",
		"aic_ckptdir_append_total",
		"aic_control_saturated_state 0",
	} {
		if !strings.Contains(res.MetricsText, series) {
			t.Fatalf("/metrics missing %q in:\n%s", series, res.MetricsText)
		}
	}
}
