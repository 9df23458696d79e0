package delta

import (
	"bytes"
	"testing"
	"testing/quick"

	"aic/internal/numeric"
)

const testPageSize = 4096

func makePages(rng *numeric.RNG, n int) [][]byte {
	pages := make([][]byte, n)
	for i := range pages {
		pages[i] = make([]byte, testPageSize)
		rng.Bytes(pages[i])
	}
	return pages
}

func TestPageAlignedRoundTrip(t *testing.T) {
	rng := numeric.NewRNG(10)
	old := makePages(rng, 4)
	updates := []PageUpdate{
		{Index: 0, Old: old[0], New: mutate(old[0], 5, rng)},   // hot, light edit
		{Index: 7, Old: nil, New: makePages(rng, 1)[0]},        // new page: raw
		{Index: 3, Old: old[3], New: makePages(rng, 1)[0]},     // hot, full rewrite
		{Index: 2, Old: old[2], New: mutate(old[2], 500, rng)}, // hot, heavy edit
	}
	stream := encodePA(updates, DefaultBlockSize, 1)
	got, err := DecodePageAlignedParallel(stream, func(idx uint64) []byte {
		for _, u := range updates {
			if u.Index == idx {
				return u.Old
			}
		}
		return nil
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(updates) {
		t.Fatalf("decoded %d pages, want %d", len(got), len(updates))
	}
	for _, u := range updates {
		if !bytes.Equal(got[u.Index], u.New) {
			t.Fatalf("page %d mismatch", u.Index)
		}
	}
}

func mutate(p []byte, nEdits int, rng *numeric.RNG) []byte {
	out := append([]byte(nil), p...)
	for i := 0; i < nEdits; i++ {
		out[rng.Intn(len(out))] ^= byte(1 + rng.Intn(255))
	}
	return out
}

func TestPageAlignedLightEditsCompressWell(t *testing.T) {
	rng := numeric.NewRNG(11)
	old := makePages(rng, 16)
	updates := make([]PageUpdate, len(old))
	var input int
	for i, p := range old {
		updates[i] = PageUpdate{Index: uint64(i), Old: p, New: mutate(p, 3, rng)}
		input += testPageSize
	}
	stream, st := EncodePageAlignedParallelStats(updates, DefaultBlockSize, 1)
	if st.InputBytes != input {
		t.Fatalf("input accounting: %d != %d", st.InputBytes, input)
	}
	if st.OutputBytes != len(stream) {
		t.Fatal("output accounting")
	}
	if st.Ratio() > 0.2 {
		t.Fatalf("light edits ratio = %v, expected well under 0.2", st.Ratio())
	}
	if st.HotPages != 16 || st.RawPages != 0 {
		t.Fatalf("page classes: hot=%d raw=%d", st.HotPages, st.RawPages)
	}
}

func TestPageAlignedRewrittenPageFallsBackToRaw(t *testing.T) {
	rng := numeric.NewRNG(12)
	old := makePages(rng, 1)[0]
	rewritten := makePages(rng, 1)[0]
	stream := encodePA([]PageUpdate{{Index: 0, Old: old, New: rewritten}}, DefaultBlockSize, 1)
	// Raw fallback bounds the stream near one page.
	if len(stream) > testPageSize+32 {
		t.Fatalf("rewritten page stream is %d bytes", len(stream))
	}
	got, err := DecodePageAlignedParallel(stream, func(uint64) []byte { return old }, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], rewritten) {
		t.Fatal("mismatch")
	}
}

func TestPageAlignedMissingOldVersion(t *testing.T) {
	rng := numeric.NewRNG(13)
	old := makePages(rng, 1)[0]
	stream := encodePA([]PageUpdate{{Index: 5, Old: old, New: mutate(old, 2, rng)}}, DefaultBlockSize, 1)
	if _, err := DecodePageAlignedParallel(stream, func(uint64) []byte { return nil }, 1); err == nil {
		t.Fatal("decode without old page must fail")
	}
}

func TestPageAlignedEmpty(t *testing.T) {
	stream := encodePA(nil, DefaultBlockSize, 1)
	got, err := DecodePageAlignedParallel(stream, func(uint64) []byte { return nil }, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d pages from empty set", len(got))
	}
}

func TestPageAlignedCorruptStream(t *testing.T) {
	for _, bad := range [][]byte{{}, {0x01}, {0x01, 0x00}, {0x01, 0x00, 0x09}, {0x01, 0x00, PageRaw, 0x10}} {
		if _, err := DecodePageAlignedParallel(bad, func(uint64) []byte { return nil }, 1); err == nil {
			t.Fatalf("corrupt stream %v accepted", bad)
		}
	}
}

// Property: arbitrary page sets round trip.
func TestPageAlignedRoundTripProperty(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		r := numeric.NewRNG(uint64(seed))
		n := int(nRaw%8) + 1
		updates := make([]PageUpdate, n)
		olds := make(map[uint64][]byte)
		for i := 0; i < n; i++ {
			newPage := make([]byte, testPageSize)
			r.Bytes(newPage)
			u := PageUpdate{Index: uint64(i * 3), New: newPage}
			if r.Intn(2) == 0 {
				old := make([]byte, testPageSize)
				r.Bytes(old)
				// Make old partially similar to new.
				copy(old[:testPageSize/2], newPage[:testPageSize/2])
				u.Old = old
				olds[u.Index] = old
			}
			updates[i] = u
		}
		stream := encodePA(updates, DefaultBlockSize, 1)
		got, err := DecodePageAlignedParallel(stream, func(idx uint64) []byte { return olds[idx] }, 1)
		if err != nil {
			return false
		}
		for _, u := range updates {
			if !bytes.Equal(got[u.Index], u.New) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsRatioZeroInput(t *testing.T) {
	if (Stats{}).Ratio() != 0 {
		t.Fatal("zero-input ratio must be 0")
	}
}
