package chaos

import (
	"context"
	"strings"
	"testing"
)

// TestRingChurn soaks the sharded multi-tenant client through the churn
// schedule: a peer joins, another dies mid-rebalance and comes back, the
// hog tenant grinds through its quota — and every committed (tenant, proc,
// seq) must restore byte-identically once placement re-converges.
func TestRingChurn(t *testing.T) {
	res, err := RunRingChurn(context.Background(), RingChurnConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatal(res.FailureReport())
	}
	// The seed-1 transcript is golden: it changes only when the soak's
	// behaviour does.
	const golden = "d48d047ead513e716d511db7f3816b9581a9bb57f01d498584bce9b63fb7ef07"
	if got := transcriptDigest(res.Transcript); got != golden {
		t.Errorf("transcript digest %s, golden %s\ntranscript:\n%s", got, golden, strings.Join(res.Transcript, "\n"))
	}
	// The schedule must actually have exercised what it claims to: degraded
	// commits while the victim was down, real chain movement on the join,
	// deferred moves while a member was dead, and quota rejections.
	if res.Checkpoints == 0 || res.Degraded == 0 {
		t.Fatalf("soak too quiet: %d commits, %d degraded", res.Checkpoints, res.Degraded)
	}
	if res.Moves == 0 {
		t.Fatalf("join moved no chains")
	}
	if res.QuotaRejects == 0 {
		t.Fatalf("quota never rejected the hog")
	}
	t.Logf("seed=%d commits=%d degraded=%d rejects=%d rebalances=%d moves=%d deferredMax=%d",
		res.Seed, res.Checkpoints, res.Degraded, res.QuotaRejects, res.Rebalances, res.Moves, res.DeferredMax)
}

// TestRingChurnSeeds sweeps a few seeds so victim choice, placement and the
// kill/restart timing vary relative to the workload.
func TestRingChurnSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is a long test")
	}
	for _, seed := range []uint64{2, 3, 5} {
		res, err := RunRingChurn(context.Background(), RingChurnConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() {
			t.Fatal(res.FailureReport())
		}
	}
}
