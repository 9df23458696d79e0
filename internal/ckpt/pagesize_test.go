package ckpt_test

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"testing"

	"aic/internal/ckpt"
	"aic/internal/delta"
	"aic/internal/memsim"
	"aic/internal/numeric"
	"aic/internal/recovery"
	"aic/internal/storage"
)

// intactChain is a full checkpoint of four random 512 B pages and one delta
// step after it, with the image at that step, and one of its pages.
func intactChain(t *testing.T) (chain []*ckpt.Checkpoint, image *memsim.AddressSpace, page []byte) {
	t.Helper()
	rng := numeric.NewRNG(39)
	as := memsim.New(512)
	b := ckpt.NewBuilder(512, 0, 0)
	page = make([]byte, 512)
	for i := uint64(0); i < 4; i++ {
		rng.Bytes(page)
		as.Write(i, 0, page, 0)
	}
	full := b.FullCheckpoint(as)
	as.Write(1, 0, []byte("edited"), 1)
	inc, _ := b.DeltaCheckpoint(as)
	return []*ckpt.Checkpoint{full, inc}, as, page
}

// deltaStep is an IncrementalDelta element at seq carrying one delta page
// against old, declaring page size ps.
func deltaStep(seq, ps int, old []byte) *ckpt.Checkpoint {
	edited := append([]byte("edit"), old[4:]...)
	payload, _ := delta.EncodePageAlignedParallelStats([]delta.PageUpdate{{Index: 0, Old: old, New: edited}}, 0, 1)
	return &ckpt.Checkpoint{Seq: seq, Kind: ckpt.IncrementalDelta, PageSize: ps, Payload: payload}
}

// restoreStored stores chain's frames on one in-memory replica and restores
// them through a recovery.ReplicaSet.
func restoreStored(t *testing.T, chain ...*ckpt.Checkpoint) (*memsim.AddressSpace, *recovery.GoodReport) {
	t.Helper()
	ctx := context.Background()
	st := storage.NewMemStore(storage.Target{Name: "a"})
	for _, c := range chain {
		if err := st.Put(ctx, "p0", c.Seq, c.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	set := recovery.ReplicaSet{Fan: new(storage.FanOut), Place: func(string) ([]string, []storage.Store, error) {
		return []string{"a"}, []storage.Store{st}, nil
	}}
	as, rep, err := set.Restore(ctx, "p0")
	if err != nil {
		t.Fatal(err)
	}
	return as, rep
}

// TestPageSizeOutOfBoundsIsBadCheckpoint: a page size comes from a frame's
// header, and a replay sizes its page buffers by it. A CRC-valid empty full
// anchor declaring page size 0, one byte past the 1 MiB bound, or 2^40,
// followed by one delta page, must be ErrBadCheckpoint through Decode and
// through Restore (at element 0, before any buffer is sized), and a replica
// set holding that pair after an intact chain must rewind past it.
func TestPageSizeOutOfBoundsIsBadCheckpoint(t *testing.T) {
	for _, ps := range []int{0, 1<<20 + 1, 1 << 40} {
		t.Run(strconv.Itoa(ps), func(t *testing.T) {
			chain, image, page := intactChain(t)
			anchor := &ckpt.Checkpoint{Seq: 2, Kind: ckpt.Full, PageSize: ps, Payload: []byte{0}} // no pages
			step := deltaStep(3, ps, page)
			for _, c := range []*ckpt.Checkpoint{anchor, step} {
				if _, err := ckpt.Decode(c.Encode()); !errors.Is(err, ckpt.ErrBadCheckpoint) {
					t.Fatalf("Decode of %v at page size %d: err = %v, want ErrBadCheckpoint", c.Kind, ps, err)
				}
			}
			_, err := ckpt.Restore([]*ckpt.Checkpoint{anchor, step})
			var elemErr *ckpt.ElementError
			if !errors.Is(err, ckpt.ErrBadCheckpoint) || !errors.As(err, &elemErr) || elemErr.Elem != 0 {
				t.Fatalf("Restore: err = %v, want ErrBadCheckpoint at element 0", err)
			}
			got, rep := restoreStored(t, chain[0], chain[1], anchor, step)
			if rep.LastSeq != 1 || !reflect.DeepEqual(rep.Corrupt, []int{2, 3}) {
				t.Fatalf("report = %+v, want a restore through seq 1 with seqs 2 and 3 corrupt", rep)
			}
			if !got.Equal(image) {
				t.Fatal("image differs from seq 1's")
			}
		})
	}
}

// TestPageSizeChangeMidChainRewinds: a CRC-valid delta step declaring a
// page size in bounds but other than its chain's is a corrupt element, as
// one whose page decodes to the wrong size is: Restore reports it as an
// *ElementError wrapping ErrBadCheckpoint, and a replica set rewinds past
// it instead of failing the whole restore.
func TestPageSizeChangeMidChainRewinds(t *testing.T) {
	chain, image, page := intactChain(t)
	step := deltaStep(2, 256, page[:256])
	_, err := ckpt.Restore(append(chain, step))
	var elemErr *ckpt.ElementError
	if !errors.Is(err, ckpt.ErrBadCheckpoint) || !errors.As(err, &elemErr) || elemErr.Elem != 2 {
		t.Fatalf("Restore: err = %v, want ErrBadCheckpoint at element 2", err)
	}
	got, rep := restoreStored(t, chain[0], chain[1], step)
	if rep.LastSeq != 1 || !reflect.DeepEqual(rep.Corrupt, []int{2}) {
		t.Fatalf("report = %+v, want a restore through seq 1 with seq 2 corrupt", rep)
	}
	if !got.Equal(image) {
		t.Fatal("image differs from seq 1's")
	}
}
