package memsim

import (
	"testing"
	"testing/quick"

	"aic/internal/numeric"
)

func TestWriteAllocatesAndDirties(t *testing.T) {
	as := New(0)
	as.Write(3, 100, []byte{1, 2, 3}, 5.0)
	if !as.Mapped(3) {
		t.Fatal("page not mapped")
	}
	if as.DirtyCount() != 1 {
		t.Fatalf("dirty = %d", as.DirtyCount())
	}
	p := as.Page(3)
	if p[100] != 1 || p[101] != 2 || p[102] != 3 || p[99] != 0 {
		t.Fatal("content")
	}
}

func TestFirstWriteHookFiresOncePerInterval(t *testing.T) {
	as := New(0)
	var fired []uint64
	var at []float64
	as.SetFirstWriteHook(func(idx uint64, now float64) {
		fired = append(fired, idx)
		at = append(at, now)
	})
	as.Write(1, 0, []byte{1}, 0)
	as.Write(1, 1, []byte{2}, 1)
	as.Write(2, 0, []byte{3}, 2)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("fired = %v", fired)
	}
	as.ResetDirty()
	as.Write(1, 2, []byte{4}, 3)
	if len(fired) != 3 {
		t.Fatalf("hook did not re-fire after reset: %v", fired)
	}
	if at[2] != 3 {
		t.Fatalf("arrival after reset = %v", at[2])
	}
}

// The write barrier reports a page's arrival at its first write in the
// interval; later writes do not move it.
func TestArrivalTimeKeepsFirstWrite(t *testing.T) {
	as := New(0)
	var at []float64
	as.SetFirstWriteHook(func(_ uint64, now float64) { at = append(at, now) })
	as.Write(9, 0, []byte{1}, 10)
	as.Write(9, 1, []byte{1}, 20)
	if len(at) != 1 || at[0] != 10 {
		t.Fatalf("arrivals = %v, want only the first-write time", at)
	}
}

func TestCrossPageWritePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("cross-page write did not panic")
		}
	}()
	as := New(64)
	as.Write(0, 60, []byte{1, 2, 3, 4, 5}, 0)
}

func TestAllocateFreeScenario1(t *testing.T) {
	// Scenario 1 from the paper: pages A..G, allocate H/I, free C. A
	// page is allocated by its first write.
	as := New(0)
	for i := uint64(0); i < 7; i++ { // A..G
		as.Write(i, 0, nil, 0)
	}
	as.ResetDirty()
	as.Write(7, 0, nil, 1)                           // H
	as.Write(8, 0, nil, 1)                           // I
	for _, idx := range []uint64{0, 1, 3, 4, 7, 8} { // A B D E H I
		as.Write(idx, 0, []byte{0xFF}, 1)
	}
	dirty := as.DirtyPages()
	want := []uint64{0, 1, 3, 4, 7, 8}
	if len(dirty) != len(want) {
		t.Fatalf("dirty = %v", dirty)
	}
	for i := range want {
		if dirty[i] != want[i] {
			t.Fatalf("dirty = %v, want %v", dirty, want)
		}
	}
	as.ResetDirty()
	as.Free(2)                                 // C
	for _, idx := range []uint64{3, 4, 5, 6} { // D E F G
		as.Write(idx, 8, []byte{0xAA}, 2)
	}
	if as.Mapped(2) {
		t.Fatal("freed page still mapped")
	}
	if as.NumPages() != 8 {
		t.Fatalf("pages = %d, want 8", as.NumPages())
	}
	if got := as.DirtyPages(); len(got) != 4 {
		t.Fatalf("dirty after third interval = %v", got)
	}
}

func TestPageCopyIsSnapshot(t *testing.T) {
	as := New(0)
	as.Write(0, 0, []byte{1}, 0)
	snap := as.PageCopy(0)
	as.Write(0, 0, []byte{9}, 1)
	if snap[0] != 1 {
		t.Fatal("snapshot aliased live page")
	}
	if as.PageCopy(42) != nil {
		t.Fatal("unmapped PageCopy must be nil")
	}
}

func TestCloneAndEqual(t *testing.T) {
	as := New(0)
	rng := numeric.NewRNG(1)
	buf := make([]byte, 512)
	for i := uint64(0); i < 20; i++ {
		rng.Bytes(buf)
		as.Write(i, 0, buf, 0)
	}
	cp := as.Clone()
	if !as.Equal(cp) {
		t.Fatal("clone not equal")
	}
	cp.Write(3, 7, []byte{0xEE}, 1)
	if as.Equal(cp) {
		t.Fatal("mutation not detected")
	}
	cp2 := as.Clone()
	cp2.Free(19)
	if as.Equal(cp2) {
		t.Fatal("missing page not detected")
	}
	other := New(64)
	if as.Equal(other) {
		t.Fatal("different page sizes must differ")
	}
}

// Property: dirty set equals exactly the set of pages written since reset.
func TestDirtyTrackingProperty(t *testing.T) {
	f := func(writesRaw []uint16, resetAfterRaw uint8) bool {
		as := New(256)
		resetAfter := int(resetAfterRaw)
		want := make(map[uint64]bool)
		for i, w := range writesRaw {
			idx := uint64(w % 64)
			if i == resetAfter {
				as.ResetDirty()
				want = make(map[uint64]bool)
			}
			as.Write(idx, int(w)%256, []byte{byte(i)}, float64(i))
			want[idx] = true
		}
		got := as.DirtyPages()
		if len(got) != len(want) {
			return false
		}
		for _, idx := range got {
			if !want[idx] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWritePreservesOtherBytes(t *testing.T) {
	as := New(64)
	full := make([]byte, 64)
	for i := range full {
		full[i] = byte(i)
	}
	as.Write(0, 0, full, 0)
	as.Write(0, 10, []byte{0xFF, 0xFE}, 1)
	p := as.Page(0)
	if p[9] != 9 || p[10] != 0xFF || p[11] != 0xFE || p[12] != 12 {
		t.Fatalf("neighbouring bytes disturbed: %v", p[8:14])
	}
}

func TestNilHookIsFine(t *testing.T) {
	as := New(0)
	as.SetFirstWriteHook(nil)
	as.Write(0, 0, []byte{1}, 0) // must not panic
	if as.DirtyCount() != 1 {
		t.Fatal("dirty tracking broken with nil hook")
	}
}
