package aic

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"aic/internal/storage"
)

// ownershipChain builds a chain that leaves pages in the image from every
// install path: the full checkpoint's raw pages (pages 8–15, never written
// again), an incremental's raw pages, and a delta element's delta-coded
// (hot) and raw (new) pages.
func ownershipChain(t *testing.T) (*Process, [][]byte) {
	t.Helper()
	p := NewProcess(256)
	for i := uint64(0); i < 16; i++ {
		p.Write(i, 0, bytes.Repeat([]byte{byte(i + 1)}, 256))
	}
	chain := [][]byte{p.FullCheckpoint()}
	for step := 0; step < 3; step++ {
		for i := uint64(0); i < 8; i++ {
			p.Write(i, step*16, []byte("edit"))
		}
		p.Write(uint64(100+step), 0, []byte("a new page"))
		if step == 1 {
			chain = append(chain, p.IncrementalCheckpoint())
			continue
		}
		enc, _ := p.DeltaCheckpoint()
		chain = append(chain, enc)
	}
	return p, chain
}

func cloneChain(chain [][]byte) [][]byte {
	out := make([][]byte, len(chain))
	for i, b := range chain {
		out[i] = bytes.Clone(b)
	}
	return out
}

// scribble overwrites every byte of every buffer.
func scribble(bufs [][]byte) {
	for _, b := range bufs {
		for i := range b {
			b[i] = 0xEE
		}
	}
}

// scribbleImage writes into every page of a restored image.
func scribbleImage(im *Image) {
	for _, idx := range im.PageIndexes() {
		im.as.Write(idx, 0, bytes.Repeat([]byte{0xEE}, im.PageSize()), 0)
	}
}

// TestRestoredImageOwnsItsPages: a restored image shares no bytes with the
// chain it was restored from, whichever entry restored it. Overwriting the
// input afterwards leaves the image unchanged, and writing into the image
// leaves the input unchanged.
func TestRestoredImageOwnsItsPages(t *testing.T) {
	restores := map[string]func([][]byte) (*Image, error){
		"RestoreImage": RestoreImage,
		"RestoreLatestGood": func(chain [][]byte) (*Image, error) {
			im, _, err := RestoreLatestGood(chain)
			return im, err
		},
	}
	for name, restore := range restores {
		t.Run(name, func(t *testing.T) {
			p, chain := ownershipChain(t)
			in := cloneChain(chain)
			im, err := restore(in)
			if err != nil {
				t.Fatal(err)
			}
			scribble(in)
			if !im.Matches(p) {
				t.Fatal("overwriting the input chain changed the restored image")
			}

			in = cloneChain(chain)
			if im, err = restore(in); err != nil {
				t.Fatal(err)
			}
			scribbleImage(im)
			for i := range in {
				if !bytes.Equal(in[i], chain[i]) {
					t.Fatalf("writing into the image changed chain element %d", i)
				}
			}
		})
	}
}

// fetchLog wraps a ring peer and remembers every buffer a read returned.
type fetchLog struct {
	Store
	mu      sync.Mutex
	fetched [][]byte
}

func (f *fetchLog) record(els []Stored) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, el := range els {
		f.fetched = append(f.fetched, el.Data)
	}
}

func (f *fetchLog) Get(ctx context.Context, key string) ([]Stored, []int, error) {
	els, missing, err := f.Store.Get(ctx, key)
	f.record(els)
	return els, missing, err
}

func (f *fetchLog) GetSeqs(ctx context.Context, key string, want []int) ([]int, []Stored, []int, error) {
	listed, els, missing, err := storage.ReadSeqs(ctx, f.Store, key, want)
	f.record(els)
	return listed, els, missing, err
}

// TestNamespaceRestoreOwnsItsPages is the ring facade's twin, with the
// full checkpoint striped so its pages come out of a reassembled frame and
// the incremental not, so its raw pages come straight out of a fetch.
func TestNamespaceRestoreOwnsItsPages(t *testing.T) {
	ctx := context.Background()
	logs := map[string]*fetchLog{}
	stores := map[string]Store{}
	for name, st := range ringStores(3) {
		logs[name] = &fetchLog{Store: st}
		stores[name] = logs[name]
	}
	c := newTestClient(t, ClientConfig{Stores: stores, Replicas: 2, StripeThreshold: 3 << 10, StripeCount: 2})
	ns := c.Namespace("t")
	p, chain := ownershipChain(t)
	for seq, enc := range chain {
		if err := ns.Checkpoint(ctx, "proc", seq, enc); err != nil {
			t.Fatal(err)
		}
	}

	im, _, err := ns.Restore(ctx, "proc")
	if err != nil {
		t.Fatal(err)
	}
	scribbleImage(im)
	got, err := ns.Chain(ctx, "proc")
	if err != nil {
		t.Fatal(err)
	}
	for i := range chain {
		if !bytes.Equal(got[i], chain[i]) {
			t.Fatalf("writing into the image changed stored element %d", i)
		}
	}

	for _, f := range logs {
		f.fetched = nil
	}
	if im, _, err = ns.Restore(ctx, "proc"); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range logs {
		scribble(f.fetched)
		n += len(f.fetched)
	}
	if n == 0 {
		t.Fatal("the restore fetched nothing through the logged peers")
	}
	if !im.Matches(p) {
		t.Fatal("overwriting the fetched buffers changed the restored image")
	}
}
