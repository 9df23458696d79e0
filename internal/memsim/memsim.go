// Package memsim simulates a process address space at page granularity.
//
// It stands in for the paper's BLCR kernel modification that write-protects
// pages with mprotect() and catches the first write to each page per
// checkpoint interval: the Go runtime's GC makes real page-level tracking
// impossible, but the checkpointer only needs (a) which pages were modified
// since the last checkpoint, (b) when each page's first write arrived, and
// (c) the page bytes — all of which this package supplies exactly.
package memsim

import (
	"fmt"
	"sort"
)

// PageSize is the default page size, matching the testbed's 4096 bytes.
const PageSize = 4096

// FirstWriteHook observes the first write to a page within the current
// dirty-tracking interval — the simulated analogue of the mprotect page
// fault that AIC's signal handler catches.
type FirstWriteHook func(pageIndex uint64, now float64)

// AddressSpace is a sparse paged memory image with dirty tracking.
// It is not safe for concurrent use.
type AddressSpace struct {
	pageSize int
	pages    map[uint64][]byte
	dirty    map[uint64]struct{} // pages written since the last ResetDirty
	hook     FirstWriteHook
}

// New creates an address space with the given page size (0 selects
// PageSize).
func New(pageSize int) *AddressSpace {
	if pageSize <= 0 {
		pageSize = PageSize
	}
	return &AddressSpace{
		pageSize: pageSize,
		pages:    make(map[uint64][]byte),
		dirty:    make(map[uint64]struct{}),
	}
}

// PageSize returns the configured page size in bytes.
func (as *AddressSpace) PageSize() int { return as.pageSize }

// SetFirstWriteHook installs the write-barrier observer (may be nil).
func (as *AddressSpace) SetFirstWriteHook(h FirstWriteHook) { as.hook = h }

// Free unmaps the page at index. Freed pages disappear from subsequent
// checkpoints (Scenario 1's page C).
func (as *AddressSpace) Free(index uint64) {
	delete(as.pages, index)
	delete(as.dirty, index)
}

// Mapped reports whether a page exists at index.
func (as *AddressSpace) Mapped(index uint64) bool {
	_, ok := as.pages[index]
	return ok
}

func (as *AddressSpace) touch(index uint64, now float64) {
	if _, already := as.dirty[index]; !already {
		as.dirty[index] = struct{}{}
		if as.hook != nil {
			as.hook(index, now)
		}
	}
}

// Write stores data into the page at index starting at offset, allocating
// the page on demand, and triggers the write barrier on the interval's
// first touch. It panics when the write crosses the page boundary — the
// workload generators always issue page-local writes, as real faults are
// per-page.
func (as *AddressSpace) Write(index uint64, offset int, data []byte, now float64) {
	if offset < 0 || offset+len(data) > as.pageSize {
		panic(fmt.Sprintf("memsim: write [%d,%d) crosses page of %d", offset, offset+len(data), as.pageSize))
	}
	p, ok := as.pages[index]
	if !ok {
		p = make([]byte, as.pageSize)
		as.pages[index] = p
	}
	as.touch(index, now)
	copy(p[offset:], data)
}

// Install maps page at index by ownership, replacing any page there: the
// address space keeps page itself, not a copy, so the caller must not touch
// it afterwards. It is a whole-page Write without the copy — the write
// barrier fires the same way — and it panics unless page is exactly one
// page long.
func (as *AddressSpace) Install(index uint64, page []byte, now float64) {
	if len(page) != as.pageSize {
		panic(fmt.Sprintf("memsim: install of %d bytes into a page of %d", len(page), as.pageSize))
	}
	as.pages[index] = page[:as.pageSize:as.pageSize]
	as.touch(index, now)
}

// Page returns the live page bytes at index (nil when unmapped). The caller
// must not retain the slice across writes; use PageCopy for snapshots.
func (as *AddressSpace) Page(index uint64) []byte { return as.pages[index] }

// PageCopy returns a snapshot of the page at index, or nil when unmapped.
func (as *AddressSpace) PageCopy(index uint64) []byte {
	p, ok := as.pages[index]
	if !ok {
		return nil
	}
	return append([]byte(nil), p...)
}

// DirtyPages returns the indices of pages written since the last
// ResetDirty, in ascending order.
func (as *AddressSpace) DirtyPages() []uint64 {
	out := make([]uint64, 0, len(as.dirty))
	for idx := range as.dirty {
		out = append(out, idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DirtyCount returns the number of dirty pages (the predictor's DP metric).
func (as *AddressSpace) DirtyCount() int { return len(as.dirty) }

// ResetDirty clears dirty tracking, re-protecting all pages — called at the
// start of each checkpoint interval.
func (as *AddressSpace) ResetDirty() {
	clear(as.dirty)
}

// MappedPages returns all mapped page indices in ascending order.
func (as *AddressSpace) MappedPages() []uint64 {
	out := make([]uint64, 0, len(as.pages))
	for idx := range as.pages {
		out = append(out, idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumPages returns the number of mapped pages.
func (as *AddressSpace) NumPages() int { return len(as.pages) }

// Clone deep-copies the address space (dirty state and hook are not
// cloned) — used to snapshot a process for restore testing.
func (as *AddressSpace) Clone() *AddressSpace {
	cp := New(as.pageSize)
	for idx, p := range as.pages {
		cp.pages[idx] = append([]byte(nil), p...)
	}
	return cp
}

// Equal reports whether two address spaces hold identical mapped pages.
func (as *AddressSpace) Equal(other *AddressSpace) bool {
	if as.pageSize != other.pageSize || len(as.pages) != len(other.pages) {
		return false
	}
	for idx, p := range as.pages {
		q, ok := other.pages[idx]
		if !ok || len(p) != len(q) {
			return false
		}
		for i := range p {
			if p[i] != q[i] {
				return false
			}
		}
	}
	return true
}
