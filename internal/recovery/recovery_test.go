package recovery

import (
	"context"
	"testing"

	"aic/internal/ckpt"
	"aic/internal/failure"
	"aic/internal/memsim"
	"aic/internal/numeric"
	"aic/internal/storage"
)

var ctx = context.Background()

// chainOf fetches a store's chain, failing the test on error.
func chainOf(t *testing.T, s storage.Store, proc string) []storage.Stored {
	t.Helper()
	chain, _, err := s.Get(ctx, proc)
	if err != nil {
		t.Fatal(err)
	}
	return chain
}

func newManager() (*Manager, *storage.FSStore, *storage.FSStore, *storage.FSStore) {
	local := storage.NewMemStore(storage.Target{Name: "local", BandwidthBps: 100 * storage.MBps})
	raid := storage.NewMemStore(storage.Target{Name: "raid", BandwidthBps: 400 * storage.MBps})
	remote := storage.NewMemStore(storage.Target{Name: "remote", BandwidthBps: 2 * storage.MBps})
	return NewManager("p0", local, raid, remote), local, raid, remote
}

func buildProcess(t *testing.T, m *Manager) (*memsim.AddressSpace, *ckpt.Builder) {
	t.Helper()
	rng := numeric.NewRNG(1)
	as := memsim.New(512)
	b := ckpt.NewBuilder(512, 0, 32)
	buf := make([]byte, 512)
	for i := uint64(0); i < 16; i++ {
		rng.Bytes(buf)
		as.Write(i, 0, buf, 0)
	}
	full := b.FullCheckpoint(as)
	if err := m.Store(ctx, full); err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 3; step++ {
		for i := 0; i < 5; i++ {
			rng.Bytes(buf[:64])
			as.Write(uint64((step*3+i)%16), (i*96)%400, buf[:64], float64(step))
		}
		c, _ := b.DeltaCheckpoint(as)
		if err := m.Store(ctx, c); err != nil {
			t.Fatal(err)
		}
	}
	return as, b
}

func TestRecoverFromEachLevel(t *testing.T) {
	for _, lv := range []failure.Level{failure.Transient, failure.PartialNode, failure.TotalNode} {
		m, _, _, _ := newManager()
		as, _ := buildProcess(t, m)
		m.ApplyFailure(ctx, lv)
		restored, info, err := m.Recover(ctx, lv)
		if err != nil {
			t.Fatalf("%v: %v", lv, err)
		}
		if !restored.Equal(as) {
			t.Fatalf("%v: restored image differs", lv)
		}
		wantLevel := int(lv)
		if info.SourceLevel != wantLevel {
			t.Fatalf("%v: recovered from level %d, want %d", lv, info.SourceLevel, wantLevel)
		}
		if len(info.Restored) != 4 || info.Bytes <= 0 || info.ReadTime <= 0 {
			t.Fatalf("%v: info = %+v", lv, info)
		}
	}
}

func TestTotalNodeFailureDestroysLocal(t *testing.T) {
	m, local, _, _ := newManager()
	buildProcess(t, m)
	m.ApplyFailure(ctx, failure.TotalNode)
	if len(chainOf(t, local, "p0")) != 0 {
		t.Fatal("local chain survived a total node failure")
	}
	// Transient and partial failures leave the local disk alone.
	m2, local2, _, _ := newManager()
	buildProcess(t, m2)
	m2.ApplyFailure(ctx, failure.Transient)
	m2.ApplyFailure(ctx, failure.PartialNode)
	if len(chainOf(t, local2, "p0")) == 0 {
		t.Fatal("local chain destroyed by a non-total failure")
	}
}

func TestRecoverPrefersCheapestEligibleLevel(t *testing.T) {
	m, _, _, _ := newManager()
	as, _ := buildProcess(t, m)
	// Transient failure: level 1 (local) suffices and is preferred.
	restored, info, err := m.Recover(ctx, failure.Transient)
	if err != nil {
		t.Fatal(err)
	}
	if info.SourceLevel != 1 || !restored.Equal(as) {
		t.Fatalf("info = %+v", info)
	}
	// Remote reads are far slower than local ones.
	_, remoteInfo, err := m.Recover(ctx, failure.TotalNode)
	if err != nil {
		t.Fatal(err)
	}
	if remoteInfo.ReadTime <= info.ReadTime {
		t.Fatalf("remote recovery %v not slower than local %v", remoteInfo.ReadTime, info.ReadTime)
	}
}

func TestRecoverFallsThroughDamagedChains(t *testing.T) {
	m, local, _, _ := newManager()
	as, _ := buildProcess(t, m)
	// Corrupt the local chain; a transient failure must fall through to
	// level 2.
	local.Delete(ctx, "p0")
	local.Put(ctx, "p0", 99, []byte("garbage"))
	restored, info, err := m.Recover(ctx, failure.Transient)
	if err != nil {
		t.Fatal(err)
	}
	if info.SourceLevel != 2 || !restored.Equal(as) {
		t.Fatalf("info = %+v", info)
	}
}

func TestRecoverNoChains(t *testing.T) {
	m, _, _, _ := newManager()
	if _, _, err := m.Recover(ctx, failure.Transient); err == nil {
		t.Fatal("recovery without any chain succeeded")
	}
}

func TestLatestCPUState(t *testing.T) {
	m, _, _, _ := newManager()
	_, b := buildProcess(t, m)
	_, info, err := m.Recover(ctx, failure.Transient)
	if err != nil {
		t.Fatal(err)
	}
	blob, seq := info.CPUState, info.LastSeq
	if seq != b.Seq()-1 {
		t.Fatalf("seq = %d, want %d", seq, b.Seq()-1)
	}
	if len(blob) != 32 {
		t.Fatalf("blob %d bytes", len(blob))
	}
	m.ApplyFailure(ctx, failure.TotalNode)
	if _, _, err := m.Recover(ctx, failure.TotalNode); err != nil {
		t.Fatalf("remote CPU state unavailable: %v", err)
	}
}
