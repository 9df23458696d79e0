package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"aic/internal/ckpt"
	"aic/internal/storage"
)

// storedSeqs lists key's chain as the store itself reports it.
func storedSeqs(t *testing.T, st storage.Store, key string) []int {
	t.Helper()
	listed, _, _, err := storage.ReadSeqs(ctx, st, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	return listed
}

// The store is the server's only commit record: a seq that a Scrub repair or
// a compaction removed from the backing store is not held any more, so an
// identical re-Put must either write it again or be refused — never acked
// out of a memory of the earlier commit.
func TestReplicationAckNeedsTheStoreToHoldTheSeq(t *testing.T) {
	chain, images := buildChain(t)
	for _, tc := range []struct {
		name string
		// remove takes seqs out of the backing store behind the server's back
		// (over the wire, or directly as a peer-side compactor does) and
		// returns the seq to re-Put.
		remove  func(t *testing.T, fs *storage.FSStore, dir string, rs *RemoteStore) int
		wantErr error // nil: the re-Put must store the seq again
	}{
		{"scrub repair drops a flipped tail", func(t *testing.T, fs *storage.FSStore, dir string, rs *RemoteStore) int {
			tail := filepath.Join(dir, storage.ProcDirName("p0"), fmt.Sprintf("ckpt-%08d.aic", 3))
			if err := storage.FlipBit(tail, len(chain[3].Data)/2, 1); err != nil {
				t.Fatal(err)
			}
			rep, err := rs.Scrub(ctx, "p0", true)
			if err != nil || !reflect.DeepEqual(rep.Corrupt, []int{3}) || !rep.Repaired {
				t.Fatalf("Scrub(repair) = %+v, %v; want seq 3 corrupt and repaired", rep, err)
			}
			return 3
		}, nil},
		{"compaction drops the prefix below its anchor", func(t *testing.T, fs *storage.FSStore, _ string, _ *RemoteStore) int {
			full := ckpt.NewBuilder(512, 0, 16).FullCheckpoint(images[2])
			full.Seq = 2
			if err := fs.ReplaceAnchor(ctx, "p0", 2, full.Encode(), []int{0, 1}); err != nil {
				t.Fatal(err)
			}
			return 1
		}, storage.ErrStaleSeq},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs, err := storage.NewFSStore(dir, storage.Target{Name: "peer"})
			if err != nil {
				t.Fatal(err)
			}
			rs := NewStore(startServer(t, fs), testConfig())
			defer rs.Close()
			for _, el := range chain {
				if err := rs.Put(ctx, "p0", el.Seq, el.Data); err != nil {
					t.Fatalf("put seq %d: %v", el.Seq, err)
				}
			}
			seq := tc.remove(t, fs, dir, rs)
			if got := storedSeqs(t, fs, "p0"); reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
				t.Fatalf("store still lists %v after the removal", got)
			}
			err = rs.Put(ctx, "p0", seq, chain[seq].Data)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("re-put of removed seq %d = %v, want %v", seq, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("re-put of removed seq %d: %v", seq, err)
			}
			data, ok, err := storage.ReadElem(ctx, fs, "p0", seq)
			if err != nil || !ok || !bytes.Equal(data, chain[seq].Data) {
				t.Fatalf("after the acked re-put the store holds seq %d: ok=%v err=%v equal=%v (lists %v)",
					seq, ok, err, bytes.Equal(data, chain[seq].Data), storedSeqs(t, fs, "p0"))
			}
		})
	}
}

// Every checkpoint frame ends in its own CRC-32C, so every frame has the same
// whole-object CRC-32C: a peer holding one frame at a seq must not take that
// CRC as proof it holds another. The Put is refused and the held frame stays.
func TestReplicationDifferentFrameAtHeldSeqIsNotAcked(t *testing.T) {
	chain, _ := buildChain(t)
	other := (&ckpt.Checkpoint{Seq: 2, Kind: ckpt.Full, PageSize: 512, Payload: []byte("diverged")}).Encode()
	if crc32.Checksum(other, crcTable) != crc32.Checksum(chain[2].Data, crcTable) {
		t.Fatal("frames no longer share their whole-object CRC-32C; this test lost its point")
	}
	back := storage.NewMemStore(storage.Target{Name: "peer"})
	rs := NewStore(startServer(t, back), testConfig())
	defer rs.Close()
	for _, el := range chain {
		if err := rs.Put(ctx, "p0", el.Seq, el.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := storage.PutVerified(ctx, rs, "p0", 2, other); !errors.Is(err, storage.ErrStaleSeq) {
		t.Fatalf("PutVerified of a different frame at a held seq = %v, want ErrStaleSeq", err)
	}
	if got, ok, _ := storage.ReadElem(ctx, back, "p0", 2); !ok || !bytes.Equal(got, chain[2].Data) {
		t.Fatal("the held frame was replaced")
	}
}

// A Put whose ack was lost is retried from its PutBegin, so the retry's commit
// reaches the store as a duplicate. It must ack on the bytes the store holds
// even when the store refuses the duplicate for another reason first: here a
// tenant quota that the first copy filled.
func TestReplicationLostAckRetryAtQuota(t *testing.T) {
	data := bytes.Repeat([]byte{0x5a}, 1<<10)
	newPeer := func() (*storage.FSStore, string) {
		fs, err := storage.NewFSStore(t.TempDir(), storage.Target{Name: "peer"})
		if err != nil {
			t.Fatal(err)
		}
		return fs, startServer(t, storage.NewQuotaStore(fs, storage.Quota{MaxBytes: int64(len(data))}))
	}
	// A clean Put measures the exchange, so the cut below drops only the
	// last byte of the commit's ack.
	counter := &countingDialer{}
	cfg := testConfig()
	cfg.Dialer = counter
	_, addr := newPeer()
	clean := NewStore(addr, cfg)
	if err := clean.Put(ctx, "p0", 0, data); err != nil {
		t.Fatal(err)
	}
	clean.Close()

	fs, addr := newPeer()
	cut := counter.Total() - 1
	fd := &FaultDialer{Plan: func(conn int) Fault {
		if conn == 1 {
			return Fault{CutAfterBytes: cut}
		}
		return Fault{}
	}}
	cfg = testConfig()
	cfg.Dialer = fd
	rs := NewStore(addr, cfg)
	defer rs.Close()
	if err := rs.Put(ctx, "p0", 0, data); err != nil {
		t.Fatalf("Put retried after its lost ack, at the tenant's byte quota: %v", err)
	}
	if fd.dials() < 2 {
		t.Fatal("the ack was not cut: no retry")
	}
	if got, ok, err := storage.ReadElem(ctx, fs, "p0", 0); err != nil || !ok || !bytes.Equal(got, data) {
		t.Fatalf("store holds seq 0: ok=%v err=%v", ok, err)
	}
}

// readCounter records the reads that reach a server's backing store: the
// whole-chain Get and the partial GetSeqs.
type readCounter struct {
	storage.Store
	mu    sync.Mutex
	gets  int
	wants [][]int
}

func (c *readCounter) Get(ctx context.Context, key string) ([]storage.Stored, []int, error) {
	c.mu.Lock()
	c.gets++
	c.mu.Unlock()
	return c.Store.Get(ctx, key)
}

func (c *readCounter) GetSeqs(ctx context.Context, key string, want []int) ([]int, []storage.Stored, []int, error) {
	c.mu.Lock()
	c.wants = append(c.wants, append([]int(nil), want...))
	c.mu.Unlock()
	return storage.ReadSeqs(ctx, c.Store, key, want)
}

func (c *readCounter) reset() (gets int, wants [][]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gets, wants = c.gets, c.wants
	c.gets, c.wants = 0, nil
	return gets, wants
}

// Asking a peer whether it holds (key, seq) reads that one element from the
// peer's store, not its whole chain: both for a retried Put of a seq the
// peer already stores, and for the probe PutVerified runs on a stale seq.
// The retry goes to a second server over the same store, as after a peer
// restart.
func TestReplicationStaleSeqProbeFetchesOneElement(t *testing.T) {
	back := &readCounter{Store: storage.NewMemStore(storage.Target{Name: "peer"})}
	data := func(seq int) []byte { return bytes.Repeat([]byte{byte('a' + seq)}, 300) }
	first := NewStore(startServer(t, back), testConfig())
	for seq := 0; seq < 3; seq++ {
		if err := first.Put(ctx, "p0", seq, data(seq)); err != nil {
			t.Fatal(err)
		}
	}
	first.Close()
	rs := NewStore(startServer(t, back), testConfig())
	defer rs.Close()
	want := [][]int{{1}}

	back.reset()
	if err := storage.PutVerified(ctx, rs, "p0", 1, data(1)); err != nil {
		t.Fatalf("PutVerified of a held seq: %v", err)
	}
	if gets, wants := back.reset(); gets != 0 || !reflect.DeepEqual(wants, want) {
		t.Fatalf("retried Put reached the store as %d Gets and GetSeqs %v; want only GetSeqs %v", gets, wants, want)
	}

	if got, ok, err := storage.ReadElem(ctx, rs, "p0", 1); err != nil || !ok || !bytes.Equal(got, data(1)) {
		t.Fatalf("ReadElem over the wire: ok=%v err=%v", ok, err)
	}
	if gets, wants := back.reset(); gets != 0 || !reflect.DeepEqual(wants, want) {
		t.Fatalf("stale-seq probe reached the store as %d Gets and GetSeqs %v; want only GetSeqs %v", gets, wants, want)
	}
}
