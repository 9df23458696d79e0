package recovery

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"aic/internal/ckpt"
	"aic/internal/delta"
	"aic/internal/failure"
	"aic/internal/memsim"
	"aic/internal/numeric"
	"aic/internal/storage"
)

// buildStoredChain makes a full + 3 deltas chain with reference images.
func buildStoredChain(t *testing.T) (chain []storage.Stored, images []*memsim.AddressSpace) {
	t.Helper()
	rng := numeric.NewRNG(3)
	as := memsim.New(512)
	b := ckpt.NewBuilder(512, 0, 16)
	buf := make([]byte, 512)
	for i := uint64(0); i < 10; i++ {
		rng.Bytes(buf)
		as.Write(i, 0, buf, 0)
	}
	chain = append(chain, storage.Stored{Seq: 0, Data: b.FullCheckpoint(as).Encode()})
	images = append(images, as.Clone())
	for step := 1; step <= 3; step++ {
		rng.Bytes(buf[:100])
		as.Write(uint64(step%10), 0, buf[:100], float64(step))
		c, _ := b.DeltaCheckpoint(as)
		chain = append(chain, storage.Stored{Seq: step, Data: c.Encode()})
		images = append(images, as.Clone())
	}
	return chain, images
}

func TestRestoreLatestGoodIntactChain(t *testing.T) {
	chain, images := buildStoredChain(t)
	as, rep, err := RestoreLatestGood(chain)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AnchorSeq != 0 || rep.LastSeq != 3 || len(rep.Discarded) != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if !as.Equal(images[3]) {
		t.Fatal("intact chain did not restore to the newest image")
	}
}

func TestRestoreLatestGoodCorruptTail(t *testing.T) {
	chain, images := buildStoredChain(t)
	chain[3].Data = chain[3].Data[:len(chain[3].Data)/2] // torn tail
	as, rep, err := RestoreLatestGood(chain)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LastSeq != 2 || len(rep.Corrupt) != 1 || rep.Corrupt[0] != 3 {
		t.Fatalf("report = %+v", rep)
	}
	if !as.Equal(images[2]) {
		t.Fatal("restore did not stop at the newest intact prefix")
	}
}

func TestRestoreLatestGoodMidChainGapCutsTail(t *testing.T) {
	chain, images := buildStoredChain(t)
	damaged := []storage.Stored{chain[0], chain[1], chain[3]} // seq 2 missing
	as, rep, err := RestoreLatestGood(damaged)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LastSeq != 1 {
		t.Fatalf("LastSeq = %d, want 1 (gap at 2 orphans 3)", rep.LastSeq)
	}
	if len(rep.Discarded) != 1 || rep.Discarded[0] != 3 {
		t.Fatalf("discarded = %v, want [3]", rep.Discarded)
	}
	if !as.Equal(images[1]) {
		t.Fatal("image mismatch")
	}
}

func TestRestoreLatestGoodNoAnchor(t *testing.T) {
	chain, _ := buildStoredChain(t)
	chain[0].Data = []byte("garbage") // the only full checkpoint
	if _, _, err := RestoreLatestGood(chain[:3]); err == nil {
		t.Fatal("restore without a surviving full checkpoint succeeded")
	}
	if _, _, err := RestoreLatestGood(nil); err == nil {
		t.Fatal("empty chain accepted")
	}
}

func TestRestoreLatestGoodPrefersNewestAnchor(t *testing.T) {
	// Two epochs: full(0) delta(1), then full(2) delta(3). The newest full
	// must anchor even though the older epoch is also intact.
	rng := numeric.NewRNG(9)
	as := memsim.New(512)
	b := ckpt.NewBuilder(512, 0, 8)
	buf := make([]byte, 512)
	var chain []storage.Stored
	var images []*memsim.AddressSpace
	for i := uint64(0); i < 6; i++ {
		rng.Bytes(buf)
		as.Write(i, 0, buf, 0)
	}
	chain = append(chain, storage.Stored{Seq: 0, Data: b.FullCheckpoint(as).Encode()})
	images = append(images, as.Clone())
	for step := 1; step <= 3; step++ {
		rng.Bytes(buf[:64])
		as.Write(uint64(step%6), 0, buf[:64], float64(step))
		var c *ckpt.Checkpoint
		if step == 2 {
			c = b.FullCheckpoint(as)
		} else {
			c, _ = b.DeltaCheckpoint(as)
		}
		chain = append(chain, storage.Stored{Seq: step, Data: c.Encode()})
		images = append(images, as.Clone())
	}
	restored, rep, err := RestoreLatestGood(chain)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AnchorSeq != 2 || rep.LastSeq != 3 {
		t.Fatalf("report = %+v, want anchor 2", rep)
	}
	// The stale pre-anchor epoch is reported as discarded, not corrupt.
	if len(rep.Discarded) != 2 || len(rep.Corrupt) != 0 {
		t.Fatalf("discarded = %v corrupt = %v", rep.Discarded, rep.Corrupt)
	}
	if !restored.Equal(images[3]) {
		t.Fatal("image mismatch")
	}
}

// TestRecoverFallsBackToLatestGoodPrefix: when every eligible level is
// damaged, Recover must salvage the best surviving prefix instead of
// failing the process.
func TestRecoverFallsBackToLatestGoodPrefix(t *testing.T) {
	chain, images := buildStoredChain(t)
	local := storage.NewMemStore(storage.Target{Name: "local", BandwidthBps: 100 * storage.MBps})
	raid := storage.NewMemStore(storage.Target{Name: "raid", BandwidthBps: 400 * storage.MBps})
	remote := storage.NewMemStore(storage.Target{Name: "remote", BandwidthBps: 2 * storage.MBps})
	m := NewManager("p0", local, raid, remote)
	// Local holds the chain with a corrupt tail; RAID and remote are empty
	// (their failure classes destroyed them).
	for i, s := range chain {
		data := s.Data
		if i == 3 {
			data = data[:len(data)/2]
		}
		if err := local.Put(ctx, "p0", s.Seq, data); err != nil {
			t.Fatal(err)
		}
	}
	as, info, err := m.Recover(ctx, failure.Transient)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Discarded) == 0 || info.SourceLevel != 1 || len(info.Restored) != 3 {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Discarded) != 1 || info.Discarded[0] != 3 {
		t.Fatalf("discarded = %v", info.Discarded)
	}
	if !as.Equal(images[2]) {
		t.Fatal("partial recovery image mismatch")
	}
	// The CPU state the resumed process loads must match the restored
	// image's checkpoint, not the corrupt tail.
	if !bytes.Equal(info.CPUState, cpuStateOf(t, chain[2])) {
		t.Fatal("CPU state is not seq 2's")
	}
}

// cpuStateOf decodes a stored element's CPU-state blob.
func cpuStateOf(t *testing.T, s storage.Stored) []byte {
	t.Helper()
	c, err := ckpt.Decode(s.Data)
	if err != nil {
		t.Fatal(err)
	}
	return c.CPUState
}

// TestRecoverCPUStateMatchesReplayedPrefix: a torn seq 2 ahead of an intact
// seq 3 rewinds the restore to seq 1, so the resumed process must load seq
// 1's CPU state — not that of the newest element that still decodes.
func TestRecoverCPUStateMatchesReplayedPrefix(t *testing.T) {
	chain, images := buildStoredChain(t)
	m, local, _, _ := newManager()
	for _, s := range chain {
		if s.Seq == 2 {
			s.Data = s.Data[:len(s.Data)/2]
		}
		if err := local.Put(ctx, "p0", s.Seq, s.Data); err != nil {
			t.Fatal(err)
		}
	}
	as, info, err := m.Recover(ctx, failure.Transient)
	if err != nil {
		t.Fatal(err)
	}
	if info.LastSeq != 1 || !reflect.DeepEqual(info.Discarded, []int{2, 3}) || !as.Equal(images[1]) {
		t.Fatalf("restored through seq %d, discarded %v; want seq 1's image, [2 3]", info.LastSeq, info.Discarded)
	}
	if !bytes.Equal(info.CPUState, cpuStateOf(t, chain[1])) {
		t.Fatal("resumed CPU state is not that of the replayed prefix's last seq")
	}
}

// TestRecoverUnionsLevels: the levels are one replica set in cost order, so
// a seq torn on L1 is read from L2 rather than rewinding the restore — the
// facades' guarantee — and each level's share is priced at its own speed.
func TestRecoverUnionsLevels(t *testing.T) {
	chain, images := buildStoredChain(t)
	m, local, raid, _ := newManager()
	var localBytes int64
	for _, s := range chain {
		data := s.Data
		if s.Seq == 2 {
			data = data[:len(data)/2]
		} else {
			localBytes += int64(len(data))
		}
		if err := local.Put(ctx, "p0", s.Seq, data); err != nil {
			t.Fatal(err)
		}
		if s.Seq >= 2 {
			if err := raid.Put(ctx, "p0", s.Seq, s.Data); err != nil {
				t.Fatal(err)
			}
		}
	}
	as, info, err := m.Recover(ctx, failure.Transient)
	if err != nil {
		t.Fatal(err)
	}
	if info.LastSeq != 3 || len(info.Discarded) != 0 || info.SourceLevel != 2 || !as.Equal(images[3]) {
		t.Fatalf("restored through seq %d from level %d, discarded %v; want seq 3 from level 2", info.LastSeq, info.SourceLevel, info.Discarded)
	}
	want := local.Target().TransferTime(localBytes) + raid.Target().TransferTime(int64(len(chain[2].Data)))
	if info.ReadTime != want {
		t.Fatalf("read time %v, want %v (L1's seqs 0, 1, 3 plus L2's seq 2)", info.ReadTime, want)
	}
}

// TestRecoverPartialPrefersLeastWorkLost: a longer prefix at a higher level
// beats a shorter one at a cheaper level.
func TestRecoverPartialPrefersLeastWorkLost(t *testing.T) {
	chain, images := buildStoredChain(t)
	local := storage.NewMemStore(storage.Target{Name: "local", BandwidthBps: 100 * storage.MBps})
	raid := storage.NewMemStore(storage.Target{Name: "raid", BandwidthBps: 400 * storage.MBps})
	remote := storage.NewMemStore(storage.Target{Name: "remote", BandwidthBps: 2 * storage.MBps})
	m := NewManager("p0", local, raid, remote)
	for i, s := range chain {
		localData, raidData := s.Data, s.Data
		if i >= 2 {
			localData = localData[:10] // local loses seqs 2..3
		}
		if i == 3 {
			raidData = raidData[:10] // raid loses only seq 3
		}
		if err := local.Put(ctx, "p0", s.Seq, localData); err != nil {
			t.Fatal(err)
		}
		if err := raid.Put(ctx, "p0", s.Seq, raidData); err != nil {
			t.Fatal(err)
		}
	}
	as, info, err := m.Recover(ctx, failure.Transient)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Discarded) == 0 || info.SourceLevel != 2 {
		t.Fatalf("info = %+v, want partial recovery from level 2", info)
	}
	if !as.Equal(images[2]) {
		t.Fatal("image mismatch")
	}
}

// TestRestoreLatestGoodRewindsPastWrongSizePage: a checksum-valid element
// whose page decodes to the wrong size is corrupt, so the replay stops
// before it instead of panicking or restoring a stale page tail.
func TestRestoreLatestGoodRewindsPastWrongSizePage(t *testing.T) {
	for _, n := range []int{600, 100} { // page size 512
		chain, images := buildStoredChain(t)
		payload, _ := delta.EncodePageAlignedParallelStats([]delta.PageUpdate{{Index: 0, New: make([]byte, n)}}, 0, 1)
		bad := &ckpt.Checkpoint{Seq: 2, Kind: ckpt.IncrementalDelta, PageSize: 512, Payload: payload}
		chain[2].Data = bad.Encode()
		as, rep, err := RestoreLatestGood(chain)
		if err != nil {
			t.Fatalf("page of %d bytes: %v", n, err)
		}
		if rep.LastSeq != 1 || len(rep.Corrupt) != 1 || rep.Corrupt[0] != 2 {
			t.Fatalf("page of %d bytes: report = %+v", n, rep)
		}
		if !as.Equal(images[1]) {
			t.Fatalf("page of %d bytes: restore did not rewind to seq 1", n)
		}
	}
}

// TestRestoreLatestGoodRewindsPastBadRawList: a checksum-valid incremental
// whose raw page list breaks the one validation rule for raw lists is
// corrupt. ckpt.Restore reports it as an *ElementError wrapping
// ErrBadCheckpoint — before any count in it sizes an allocation — and the
// last-good-prefix restore rewinds past it.
func TestRestoreLatestGoodRewindsPastBadRawList(t *testing.T) {
	page := bytes.Repeat([]byte{0x5A}, 512) // buildStoredChain's page size
	list := func(count uint64, entries ...any) []byte {
		out := binary.AppendUvarint(nil, count)
		for _, e := range entries {
			switch e := e.(type) {
			case int:
				out = binary.AppendUvarint(out, uint64(e))
			case []byte:
				out = append(out, e...)
			}
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"count far beyond the payload", list(1<<40, 0, page)},
		{"count one past the pages", list(2, 0, page)},
		{"duplicate index", list(2, 3, page, 3, page)},
		{"descending indexes", list(2, 5, page, 3, page)},
		{"short page", list(1, 0, page[:100])},
		{"trailing bytes", list(1, 0, page, []byte{0})},
		{"missing count", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			chain, images := buildStoredChain(t)
			bad := &ckpt.Checkpoint{Seq: 2, Kind: ckpt.Incremental, PageSize: 512, Payload: tc.payload}
			chain[2].Data = bad.Encode()
			var decoded []*ckpt.Checkpoint
			for _, s := range chain {
				c, err := ckpt.Decode(s.Data)
				if err != nil {
					t.Fatalf("seq %d does not pass Decode: %v", s.Seq, err)
				}
				decoded = append(decoded, c)
			}
			_, err := ckpt.Restore(decoded)
			var elemErr *ckpt.ElementError
			if !errors.As(err, &elemErr) || elemErr.Elem != 2 || !errors.Is(err, ckpt.ErrBadCheckpoint) {
				t.Fatalf("Restore: err = %v, want ErrBadCheckpoint at element 2", err)
			}
			as, rep, err := RestoreLatestGood(chain)
			if err != nil {
				t.Fatal(err)
			}
			if rep.LastSeq != 1 || !reflect.DeepEqual(rep.Corrupt, []int{2}) || !reflect.DeepEqual(rep.Discarded, []int{2, 3}) {
				t.Fatalf("report = %+v", rep)
			}
			if !as.Equal(images[1]) {
				t.Fatal("restore did not rewind to seq 1")
			}
		})
	}
}
