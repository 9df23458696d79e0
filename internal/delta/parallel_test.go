package delta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"aic/internal/numeric"
)

// encodePA is the page-aligned stream of updates at workers encoders.
func encodePA(updates []PageUpdate, blockSize, workers int) []byte {
	out, _ := EncodePageAlignedParallelStats(updates, blockSize, workers)
	return out
}

// randomUpdates builds a page set with a randomized hot/raw mix: light-edit
// hot pages (delta pays off), rewritten hot pages (raw fallback), and new
// pages without a previous version.
func randomUpdates(rng *numeric.RNG, n, pageSize int) ([]PageUpdate, map[uint64][]byte) {
	updates := make([]PageUpdate, 0, n)
	olds := make(map[uint64][]byte)
	for i := 0; i < n; i++ {
		newPage := make([]byte, pageSize)
		rng.Bytes(newPage)
		u := PageUpdate{Index: uint64(i * 2), New: newPage} // ascending, unique
		switch rng.Intn(3) {
		case 0: // hot page, light edits: delta mode
			old := append([]byte(nil), newPage...)
			for k := 0; k < 4; k++ {
				old[rng.Intn(pageSize)] ^= byte(1 + rng.Intn(255))
			}
			u.Old = old
			olds[u.Index] = old
		case 1: // hot page, full rewrite: raw fallback
			old := make([]byte, pageSize)
			rng.Bytes(old)
			u.Old = old
			olds[u.Index] = old
		}
		updates = append(updates, u)
	}
	return updates, olds
}

func TestParallelEncodeMatchesSerial(t *testing.T) {
	rng := numeric.NewRNG(77)
	for _, pageSize := range []int{128, 512, 4096} {
		for _, n := range []int{0, 1, 2, 5, 33, 128} {
			updates, _ := randomUpdates(rng, n, pageSize)
			serial, serialStats := EncodePageAlignedParallelStats(updates, DefaultBlockSize, 1)
			for _, workers := range []int{1, 2, 8} {
				parallel, parallelStats := EncodePageAlignedParallelStats(updates, DefaultBlockSize, workers)
				if !bytes.Equal(serial, parallel) {
					t.Fatalf("pageSize=%d n=%d workers=%d: parallel stream differs from serial (%d vs %d bytes)",
						pageSize, n, workers, len(parallel), len(serial))
				}
				if parallelStats != serialStats {
					t.Fatalf("pageSize=%d n=%d workers=%d: stats differ: %+v vs %+v",
						pageSize, n, workers, parallelStats, serialStats)
				}
			}
		}
	}
}

func TestParallelEncodeDefaultParallelism(t *testing.T) {
	rng := numeric.NewRNG(78)
	updates, _ := randomUpdates(rng, 40, 1024)
	serial := encodePA(updates, DefaultBlockSize, 1)
	if got := encodePA(updates, DefaultBlockSize, 0); !bytes.Equal(serial, got) {
		t.Fatal("GOMAXPROCS-parallel stream differs from serial")
	}
	if got := encodePA(updates, DefaultBlockSize, 100); !bytes.Equal(serial, got) {
		t.Fatal("over-provisioned parallel stream differs from serial")
	}
}

func TestParallelDecodeMatchesSerial(t *testing.T) {
	rng := numeric.NewRNG(79)
	updates, olds := randomUpdates(rng, 50, 2048)
	fetch := func(idx uint64) []byte { return olds[idx] }
	stream := encodePA(updates, DefaultBlockSize, 1)
	want, err := DecodePageAlignedParallel(stream, fetch, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 8} {
		got, err := DecodePageAlignedParallel(stream, fetch, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d pages, want %d", workers, len(got), len(want))
		}
		for idx, page := range want {
			if !bytes.Equal(got[idx], page) {
				t.Fatalf("workers=%d: page %d mismatch", workers, idx)
			}
		}
	}
}

func TestParallelDecodeMissingOldVersion(t *testing.T) {
	rng := numeric.NewRNG(80)
	old := make([]byte, 512)
	rng.Bytes(old)
	edited := append([]byte(nil), old...)
	edited[3] ^= 0xFF
	stream := encodePA([]PageUpdate{{Index: 9, Old: old, New: edited}}, DefaultBlockSize, 1)
	if _, err := DecodePageAlignedParallel(stream, func(uint64) []byte { return nil }, 4); err == nil {
		t.Fatal("decode without the previous version must fail")
	}
}

// rawFrameStream hand-builds a page-aligned stream of raw frames with the
// given indexes, for exercising the ordering validation.
func rawFrameStream(indexes []uint64) []byte {
	out := binary.AppendUvarint(nil, uint64(len(indexes)))
	for _, idx := range indexes {
		out = binary.AppendUvarint(out, idx)
		out = append(out, PageRaw)
		out = binary.AppendUvarint(out, 3)
		out = append(out, 0xAA, 0xBB, 0xCC)
	}
	return out
}

func TestDecodeRejectsDuplicateAndDescendingIndexes(t *testing.T) {
	cases := []struct {
		name    string
		indexes []uint64
	}{
		{"duplicate", []uint64{4, 4}},
		{"descending", []uint64{7, 3}},
		{"duplicate-later", []uint64{1, 5, 5}},
	}
	fetch := func(uint64) []byte { return nil }
	for _, tc := range cases {
		stream := rawFrameStream(tc.indexes)
		if _, err := DecodePageAlignedParallel(stream, fetch, 1); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: serial decode: got %v, want ErrCorrupt", tc.name, err)
		}
		if _, err := DecodePageAlignedParallel(stream, fetch, 4); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: parallel decode: got %v, want ErrCorrupt", tc.name, err)
		}
	}
	// Ascending unique indexes stay accepted.
	if _, err := DecodePageAlignedParallel(rawFrameStream([]uint64{1, 5, 9}), fetch, 1); err != nil {
		t.Fatalf("ascending stream rejected: %v", err)
	}
}

func TestStatsReflectEmittedModes(t *testing.T) {
	rng := numeric.NewRNG(81)
	lightOld := make([]byte, 4096)
	rng.Bytes(lightOld)
	lightNew := append([]byte(nil), lightOld...)
	lightNew[100] ^= 0x5A
	rewrittenOld := make([]byte, 4096)
	rng.Bytes(rewrittenOld)
	rewrittenNew := make([]byte, 4096)
	rng.Bytes(rewrittenNew)
	freshNew := make([]byte, 4096)
	rng.Bytes(freshNew)

	updates := []PageUpdate{
		{Index: 0, Old: lightOld, New: lightNew},         // delta pays off → hot
		{Index: 1, Old: rewrittenOld, New: rewrittenNew}, // raw fallback → raw
		{Index: 2, Old: nil, New: freshNew},              // no previous version → raw
	}
	_, st := EncodePageAlignedParallelStats(updates, DefaultBlockSize, 1)
	if st.HotPages != 1 || st.RawPages != 2 {
		t.Fatalf("stats must count emitted modes: hot=%d raw=%d, want 1/2", st.HotPages, st.RawPages)
	}
	if st.InputBytes != 3*4096 {
		t.Fatalf("InputBytes = %d", st.InputBytes)
	}
}

func TestEncoderReuseMatchesOneShot(t *testing.T) {
	rng := numeric.NewRNG(82)
	var e Encoder
	for i := 0; i < 20; i++ {
		n := 64 + rng.Intn(4096)
		src := make([]byte, n)
		rng.Bytes(src)
		dst := append([]byte(nil), src...)
		for k := 0; k < 1+rng.Intn(9); k++ {
			dst[rng.Intn(n)] ^= byte(1 + rng.Intn(255))
		}
		want := Encode(src, dst, DefaultBlockSize)
		got := e.Encode(src, dst, DefaultBlockSize)
		if !bytes.Equal(want, got) {
			t.Fatalf("iteration %d: reused encoder stream differs", i)
		}
		decoded, err := Decode(src, got)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !bytes.Equal(decoded, dst) {
			t.Fatalf("iteration %d: round trip mismatch", i)
		}
	}
}

func TestAppendEncodePreservesPrefix(t *testing.T) {
	src := []byte("the quick brown fox jumps over the lazy dog 0123456789")
	dst := []byte("the quick brown cat jumps over the lazy dog 0123456789")
	var e Encoder
	prefix := []byte{0xDE, 0xAD}
	out := e.AppendEncode(append([]byte(nil), prefix...), src, dst, 8)
	if !bytes.Equal(out[:2], prefix) {
		t.Fatal("prefix clobbered")
	}
	if !bytes.Equal(out[2:], Encode(src, dst, 8)) {
		t.Fatal("appended stream differs from one-shot Encode")
	}
}
