package ckpt

import (
	"encoding/binary"
	"runtime"
	"testing"

	"aic/internal/delta"
	"aic/internal/memsim"
	"aic/internal/numeric"
)

// referenceReplay replays chain the way Restore did before it owned a page
// pool: a raw page list parsed page by page, a delta or XOR stream through
// the map-returning delta.DecodePageAlignedParallel on one worker, every
// page copied in with memsim.Write, then the element's freed pages
// unmapped.
func referenceReplay(t *testing.T, chain []*Checkpoint) *memsim.AddressSpace {
	t.Helper()
	ref := memsim.New(chain[0].PageSize)
	for i, c := range chain {
		switch c.Kind {
		case Full, Incremental:
			p := c.Payload
			count, n := binary.Uvarint(p)
			p = p[n:]
			for range count {
				idx, n := binary.Uvarint(p)
				ref.Write(idx, 0, p[n:n+c.PageSize], 0)
				p = p[n+c.PageSize:]
			}
		case IncrementalDelta:
			pages, err := delta.DecodePageAlignedParallel(c.Payload, ref.Page, 1)
			if err != nil {
				t.Fatalf("reference replay of element %d: %v", i, err)
			}
			for idx, page := range pages {
				ref.Write(idx, 0, page, 0)
			}
		}
		for _, idx := range c.Freed {
			ref.Free(idx)
		}
	}
	return ref
}

// TestRestorePoolNeverAliases replays a chain that mixes raw incrementals
// mid-chain, delta and XOR pages, and a page freed and then mapped again,
// so the pool recycles displaced and freed buffers between elements. Every
// prefix must restore to the reference replay page for page, and no two
// mapped pages may share backing memory.
func TestRestorePoolNeverAliases(t *testing.T) {
	const pageSize = 512
	rng := numeric.NewRNG(32)
	as := memsim.New(pageSize)
	b := NewBuilder(pageSize, 0, 16)
	var all []uint64
	for i := uint64(0); i < 24; i++ {
		all = append(all, i)
	}
	writeRandomPages(as, rng, all, 0)
	frames := [][]byte{b.FullCheckpoint(as).Encode()}
	edit := func(idxs ...uint64) {
		buf := make([]byte, 16)
		for _, idx := range idxs {
			rng.Bytes(buf)
			as.Write(idx, rng.Intn(pageSize-len(buf)), buf, 0)
		}
	}
	steps := []func() *Checkpoint{
		func() *Checkpoint { // hot delta pages
			edit(1, 2, 3, 4, 5)
			c, _ := b.DeltaCheckpoint(as)
			return c
		},
		func() *Checkpoint { // hot again, a fresh page raw in the stream, page 7 freed
			edit(2, 3, 4)
			writeRandomPages(as, rng, []uint64{30}, 0)
			as.Free(7)
			c, _ := b.DeltaCheckpoint(as)
			return c
		},
		func() *Checkpoint { // raw incremental mid-chain over recycled pages
			writeRandomPages(as, rng, []uint64{0, 2, 8, 9}, 0)
			return b.IncrementalCheckpoint(as)
		},
		func() *Checkpoint { // XOR pages, page 7 mapped again
			edit(0, 2, 8, 10)
			writeRandomPages(as, rng, []uint64{7}, 0)
			c, _ := b.XORCheckpoint(as)
			return c
		},
		func() *Checkpoint { // delta pages against the XOR-decoded ones, two frees
			edit(0, 2, 7, 8)
			as.Free(11)
			as.Free(12)
			c, _ := b.DeltaCheckpoint(as)
			return c
		},
		func() *Checkpoint { // a freed index mapped again raw, beside deltas
			writeRandomPages(as, rng, []uint64{11}, 0)
			edit(0, 7)
			c, _ := b.DeltaCheckpoint(as)
			return c
		},
	}
	for _, step := range steps {
		frames = append(frames, step().Encode())
	}
	var chain []*Checkpoint
	for _, f := range frames {
		c, err := Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, c)
	}
	for n := 1; n <= len(chain); n++ {
		got, err := Restore(chain[:n])
		if err != nil {
			t.Fatalf("prefix of %d: %v", n, err)
		}
		want := referenceReplay(t, chain[:n])
		if !got.Equal(want) {
			t.Fatalf("prefix of %d: image differs from the reference replay", n)
		}
		seen := make(map[*byte]uint64)
		for _, idx := range got.MappedPages() {
			p := &got.Page(idx)[0]
			if other, ok := seen[p]; ok {
				t.Fatalf("prefix of %d: pages %d and %d share backing memory", n, other, idx)
			}
			seen[p] = idx
		}
	}
	if got, _ := Restore(chain); !got.Equal(as) {
		t.Fatal("restored image differs from the live process")
	}
}

// hotChain is BenchmarkRestoreChain's hot shape: an anchor of anchorPages
// random 4 KiB pages, then deltas elements that each edit the first
// pagesPerDelta pages with four 64 B writes, so every page is delta-coded.
func hotChain(t *testing.T, anchorPages, deltas, pagesPerDelta int) []*Checkpoint {
	t.Helper()
	rng := numeric.NewRNG(6)
	as := memsim.New(4096)
	idxs := make([]uint64, anchorPages)
	for i := range idxs {
		idxs[i] = uint64(i)
	}
	writeRandomPages(as, rng, idxs, 0)
	b := NewBuilder(4096, 0, 64)
	frames := [][]byte{b.FullCheckpoint(as).Encode()}
	edit := make([]byte, 64)
	for range deltas {
		for i := range pagesPerDelta {
			for range 4 {
				rng.Bytes(edit)
				as.Write(uint64(i), rng.Intn(4096-len(edit)), edit, 0)
			}
		}
		c, _ := b.DeltaCheckpoint(as)
		frames = append(frames, c.Encode())
	}
	chain := make([]*Checkpoint, len(frames))
	for i, f := range frames {
		var err error
		if chain[i], err = Decode(f); err != nil {
			t.Fatal(err)
		}
	}
	return chain
}

// TestRestoreAllocationsDoNotGrowWithPages bounds the replay's allocations
// on the hot chain shape (a 2,048-page anchor and 15 deltas): a small
// constant per element, under 400 for the chain, and no more than one more
// per element when each delta carries four times the pages. The anchor's
// pages come from one slab and later pages from recycled buffers, so the
// bytes allocated stay within the anchor, one element's pages and a
// little bookkeeping, however long the chain.
func TestRestoreAllocationsDoNotGrowWithPages(t *testing.T) {
	const anchorPages, perElem = 2048, 24
	allocs := func(pagesPerDelta int) float64 {
		chain := hotChain(t, anchorPages, 15, pagesPerDelta)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Restore(chain); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(anchorPages+pagesPerDelta)*4096+1<<20; got > limit {
			t.Errorf("%d pages per delta: replay allocated %d bytes, want ≤ %d", pagesPerDelta, got, limit)
		}
		n := testing.AllocsPerRun(3, func() {
			if _, err := Restore(chain); err != nil {
				t.Fatal(err)
			}
		})
		if n > perElem*float64(len(chain)) || n >= 400 {
			t.Errorf("%d pages per delta: %.0f allocations to replay %d elements, want ≤ %d per element and < 400",
				pagesPerDelta, n, len(chain), perElem)
		}
		return n
	}
	small, large := allocs(64), allocs(256)
	if large-small > 16 {
		t.Errorf("allocations grow with pages per element: %.0f at 64 pages per delta, %.0f at 256", small, large)
	}
}
