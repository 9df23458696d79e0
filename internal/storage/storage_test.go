package storage

import (
	"context"
	"math"
	"testing"
)

func TestTransferTime(t *testing.T) {
	tg := Target{BandwidthBps: 100, LatencySec: 1}
	if got := tg.TransferTime(200); got != 3 {
		t.Fatalf("TransferTime = %v, want 3", got)
	}
	if got := tg.TransferTime(-5); got != 1 {
		t.Fatalf("negative bytes: %v", got)
	}
	zero := Target{LatencySec: 0.5}
	if zero.TransferTime(1000) != 0.5 {
		t.Fatal("zero bandwidth must cost only latency")
	}
}

func TestCoastalParameters(t *testing.T) {
	s := Coastal(1)
	if math.Abs(s.Remote.BandwidthBps-2*MBps) > 1 {
		t.Fatalf("B3 = %v", s.Remote.BandwidthBps)
	}
	if math.Abs(s.RAID5.BandwidthBps-483*GBps) > 1 {
		t.Fatalf("B2 = %v", s.RAID5.BandwidthBps)
	}
	// A 1 GB checkpoint to remote storage at 1x should take ~500 s, the
	// order of the paper's c3 = 1052 for a full pF3D image round.
	sec := s.Remote.TransferTime(1 << 30)
	if sec < 400 || sec > 700 {
		t.Fatalf("1 GB to remote = %v s", sec)
	}
}

func TestCoastalScaling(t *testing.T) {
	base := Coastal(1)
	big := Coastal(4)
	if math.Abs(big.Remote.BandwidthBps*4-base.Remote.BandwidthBps) > 1 {
		t.Fatal("B3 must shrink with size")
	}
	if big.RAID5.BandwidthBps != base.RAID5.BandwidthBps {
		t.Fatal("B2 must stay flat")
	}
	if Coastal(0).Size != 1 {
		t.Fatal("non-positive size must clamp to 1")
	}
}

func TestCompressTimeComponents(t *testing.T) {
	s := System{
		LocalDisk:   Target{BandwidthBps: 100, LatencySec: 0},
		CompressBps: 50,
	}
	// read 100B (1s) + compress 100B (2s) + write 10B (0.1s)
	if got := s.CompressTime(100, 10); math.Abs(got-3.1) > 1e-12 {
		t.Fatalf("CompressTime = %v", got)
	}
}

// mustChain fetches proc's chain, failing the test on error.
func mustChain(t *testing.T, s Store, proc string) []Stored {
	t.Helper()
	chain, _, err := s.Get(context.Background(), proc)
	if err != nil {
		t.Fatalf("Get(%s): %v", proc, err)
	}
	return chain
}

func TestMemStorePutChain(t *testing.T) {
	ctx := context.Background()
	ls := NewMemStore(Target{BandwidthBps: 10})
	if err := ls.Put(ctx, "p", 0, []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := ls.Put(ctx, "p", 1, []byte("bb")); err != nil {
		t.Fatal(err)
	}
	if err := ls.Put(ctx, "p", 1, []byte("dup")); err == nil {
		t.Fatal("non-monotonic seq accepted")
	}
	chain := mustChain(t, ls, "p")
	if len(chain) != 2 || chain[0].Seq != 0 || chain[1].Seq != 1 {
		t.Fatalf("chain = %v", chain)
	}
	if n, err := ls.Bytes("p"); n != 6 || err != nil {
		t.Fatalf("bytes = %d, %v", n, err)
	}
	// The modelled write cost comes from the target.
	if sec := ls.Target().TransferTime(2); math.Abs(sec-0.2) > 1e-12 {
		t.Fatalf("write time = %v", sec)
	}
	// Stored data must be a copy.
	orig := []byte("mut")
	ls.Put(ctx, "q", 0, orig)
	orig[0] = 'X'
	if string(mustChain(t, ls, "q")[0].Data) != "mut" {
		t.Fatal("store aliased caller buffer")
	}
	procs, err := ls.List(ctx)
	if err != nil || len(procs) != 2 || procs[0] != "p" || procs[1] != "q" {
		t.Fatalf("List = %v, %v", procs, err)
	}
}

func TestMemStoreTruncate(t *testing.T) {
	ctx := context.Background()
	ls := NewMemStore(Target{BandwidthBps: 1})
	for seq := 0; seq < 6; seq++ {
		ls.Put(ctx, "p", seq, []byte{byte(seq)})
	}
	if err := ls.Truncate(ctx, "p", 4); err != nil {
		t.Fatal(err)
	}
	chain := mustChain(t, ls, "p")
	if len(chain) != 2 || chain[0].Seq != 4 {
		t.Fatalf("chain after truncate = %v", chain)
	}
	ls.Put(ctx, "q", 0, []byte{2})
	if err := ls.Delete(ctx, "p"); err != nil {
		t.Fatal(err)
	}
	if len(mustChain(t, ls, "p")) != 0 || len(mustChain(t, ls, "q")) != 1 {
		t.Fatal("Delete")
	}
}

func TestMemStoreContextCancelled(t *testing.T) {
	ls := NewMemStore(Target{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ls.Put(ctx, "p", 0, []byte{1}); err == nil {
		t.Fatal("Put with cancelled context must fail")
	}
	if _, _, err := ls.Get(ctx, "p"); err == nil {
		t.Fatal("Get with cancelled context must fail")
	}
}

func TestScaleFootprint(t *testing.T) {
	base := Coastal(1)
	s := base.ScaleFootprint(0.5)
	if s.LocalDisk.BandwidthBps != base.LocalDisk.BandwidthBps/2 ||
		s.Remote.BandwidthBps != base.Remote.BandwidthBps/2 ||
		s.RAID5.BandwidthBps != base.RAID5.BandwidthBps/2 ||
		s.CompressBps != base.CompressBps/2 {
		t.Fatal("all byte rates must scale together")
	}
	if base.ScaleFootprint(0) != base || base.ScaleFootprint(-1) != base {
		t.Fatal("non-positive factors must be identity")
	}
}

func TestBenchSystemCalibration(t *testing.T) {
	sys := BenchSystem(1, 16<<20)
	// A full 16-MiB image to remote storage takes on the order of the
	// paper's c3 (~500-1100 s for 1 GB at 2 MB/s).
	sec := sys.Remote.TransferTime(16 << 20)
	if sec < 400 || sec > 700 {
		t.Fatalf("full transfer %v s out of the calibrated range", sec)
	}
	// Compression throughput is the testbed-calibrated constant, scaled.
	wantCompress := BenchCompressBps * 16 / 1024
	if sys.CompressBps < wantCompress*0.99 || sys.CompressBps > wantCompress*1.01 {
		t.Fatalf("compress rate %v, want ~%v", sys.CompressBps, wantCompress)
	}
}

func TestMemStoreTargetAccessor(t *testing.T) {
	tg := Target{Name: "x", BandwidthBps: 5}
	if NewMemStore(tg).Target() != tg {
		t.Fatal("Target accessor")
	}
}
