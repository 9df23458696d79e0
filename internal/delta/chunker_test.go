package delta

import (
	"bytes"
	"math/rand"
	"testing"
)

// checkPartition asserts the chunks exactly tile data and respect the
// configured bounds, and returns the reassembled bytes.
func checkPartition(t *testing.T, data []byte, cfg ChunkConfig, chunks []Chunk) []byte {
	t.Helper()
	norm := cfg.withDefaults()
	var out []byte
	off := 0
	for i, c := range chunks {
		if c.Off != off {
			t.Fatalf("chunk %d starts at %d, want %d", i, c.Off, off)
		}
		if c.Len <= 0 || c.Len > norm.Max {
			t.Fatalf("chunk %d length %d outside (0, %d]", i, c.Len, norm.Max)
		}
		if i < len(chunks)-1 && c.Len < norm.Min {
			t.Fatalf("non-final chunk %d length %d below min %d", i, c.Len, norm.Min)
		}
		out = append(out, data[c.Off:c.Off+c.Len]...)
		off += c.Len
	}
	if off != len(data) {
		t.Fatalf("chunks cover %d bytes, want %d", off, len(data))
	}
	return out
}

func TestChunksEmptyAndTiny(t *testing.T) {
	if got := Chunks(nil, ChunkConfig{}); len(got) != 0 {
		t.Fatalf("empty input produced %d chunks", len(got))
	}
	data := []byte("tiny")
	chunks := Chunks(data, ChunkConfig{})
	if len(chunks) != 1 || chunks[0].Len != len(data) || chunks[0].Natural {
		t.Fatalf("tiny input: got %+v", chunks)
	}
}

func TestChunksRoundTripAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := ChunkConfig{Min: 128, Avg: 512, Max: 2048}
	for _, n := range []int{1, 100, 4 << 10, 100 << 10} {
		data := make([]byte, n)
		rng.Read(data)
		chunks := Chunks(data, cfg)
		if got := checkPartition(t, data, cfg, chunks); !bytes.Equal(got, data) {
			t.Fatalf("n=%d: reassembly differs", n)
		}
	}
}

// TestNormalizedClampsToCeiling: no configuration yields a chunk longer
// than MaxChunkCeiling, the length a dedup recipe is checked against.
func TestNormalizedClampsToCeiling(t *testing.T) {
	for _, cfg := range []ChunkConfig{
		{Max: 1 << 30},
		{Min: 1 << 30},
		{Min: MaxChunkCeiling, Max: MaxChunkCeiling},
	} {
		norm := cfg.Normalized()
		if norm.Max != MaxChunkCeiling || norm.Min > norm.Max/2 {
			t.Fatalf("%+v normalized to %+v, want Max %d and Min ≤ Max/2", cfg, norm, MaxChunkCeiling)
		}
	}
	if norm := (ChunkConfig{}).Normalized(); norm.Max != DefaultMaxChunk || norm.Min != DefaultMinChunk {
		t.Fatalf("defaults moved: %+v", norm)
	}
}

func TestChunksDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 64<<10)
	rng.Read(data)
	a := Chunks(data, ChunkConfig{})
	b := Chunks(data, ChunkConfig{})
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestChunksShiftConvergence is the dedup-enabling property on realistic
// data: the same content behind different-length prefixes chunks
// identically once the streams re-synchronize at a natural boundary, so
// shared chunks get shared IDs.
func TestChunksShiftConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	shared := make([]byte, 128<<10)
	rng.Read(shared)
	cfg := ChunkConfig{Min: 256, Avg: 1024, Max: 4096}
	base := Chunks(shared, cfg)
	for _, shift := range []int{1, 17, 255, 1000, 5000} {
		prefix := make([]byte, shift)
		rng.Read(prefix)
		shifted := Chunks(append(append([]byte(nil), prefix...), shared...), cfg)
		common, ok := commonStart(base, shifted, shift)
		if !ok {
			t.Fatalf("shift %d: streams never re-converged", shift)
		}
		if common > 5*4096 {
			t.Fatalf("shift %d: converged only at offset %d", shift, common)
		}
		assertSameSuffix(t, base, shifted, shift, common)
	}
}

// commonStart finds the smallest content offset (in the unshifted stream)
// that begins a chunk in both chunkings.
func commonStart(base, shifted []Chunk, shift int) (int, bool) {
	starts := make(map[int]bool, len(base))
	for _, c := range base {
		starts[c.Off] = true
	}
	for _, c := range shifted {
		if off := c.Off - shift; off >= 0 && starts[off] {
			return off, true
		}
	}
	return 0, false
}

// assertSameSuffix checks both chunkings are identical from content offset
// common on: once both chunkers stand at the same content position, the
// remainder is a pure function of the remaining bytes.
func assertSameSuffix(t *testing.T, base, shifted []Chunk, shift, common int) {
	t.Helper()
	var a, b []Chunk
	for _, c := range base {
		if c.Off >= common {
			a = append(a, c)
		}
	}
	for _, c := range shifted {
		if c.Off-shift >= common {
			b = append(b, Chunk{Off: c.Off - shift, Len: c.Len, Natural: c.Natural})
		}
	}
	if len(a) != len(b) {
		t.Fatalf("suffix chunk counts differ after offset %d: %d vs %d", common, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("suffix chunk %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// FuzzChunker fuzzes the three chunker contracts at once: exact
// partition/round-trip, determinism, and shift convergence (whenever the
// shifted and unshifted chunkings share any natural chunk start, their
// chunkings beyond it must be identical — the content-defined property).
func FuzzChunker(f *testing.F) {
	f.Add([]byte("hello world"), uint8(3))
	f.Add(bytes.Repeat([]byte{0}, 5000), uint8(1))
	f.Add(bytes.Repeat([]byte("abcdefg"), 1000), uint8(200))
	seed := make([]byte, 20<<10)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed, uint8(37))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		cfg := ChunkConfig{Min: 64, Avg: 256, Max: 1024}
		chunks := Chunks(data, cfg)
		var out []byte
		off := 0
		for i, c := range chunks {
			if c.Off != off || c.Len <= 0 {
				t.Fatalf("chunk %d = %+v does not tile at %d", i, c, off)
			}
			if c.Len > 1024 || (i < len(chunks)-1 && c.Len < 64) {
				t.Fatalf("chunk %d length %d out of bounds", i, c.Len)
			}
			out = append(out, data[c.Off:c.Off+c.Len]...)
			off = c.Off + c.Len
		}
		if !bytes.Equal(out, data) {
			t.Fatal("reassembly differs from input")
		}
		again := Chunks(data, cfg)
		if len(again) != len(chunks) {
			t.Fatal("chunking is not deterministic")
		}
		for i := range again {
			if again[i] != chunks[i] {
				t.Fatal("chunking is not deterministic")
			}
		}
		if len(data) == 0 || shift == 0 {
			return
		}
		prefix := bytes.Repeat([]byte{0xA5}, int(shift))
		shifted := Chunks(append(prefix, data...), cfg)
		if common, ok := commonStartNatural(chunks, shifted, int(shift)); ok {
			var a, b []Chunk
			for _, c := range chunks {
				if c.Off >= common {
					a = append(a, c)
				}
			}
			for _, c := range shifted {
				if c.Off-int(shift) >= common {
					b = append(b, Chunk{Off: c.Off - int(shift), Len: c.Len, Natural: c.Natural})
				}
			}
			if len(a) != len(b) {
				t.Fatalf("diverged after common start %d: %d vs %d chunks", common, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("diverged after common start %d at chunk %d: %+v vs %+v", common, i, a[i], b[i])
				}
			}
		}
	})
}

// commonStartNatural is commonStart restricted to starts that follow a
// natural boundary in both streams (a start forced by the Max bound does
// not imply the chunkers are in synchronized states).
func commonStartNatural(base, shifted []Chunk, shift int) (int, bool) {
	starts := make(map[int]bool)
	for i := 1; i < len(base); i++ {
		if base[i-1].Natural {
			starts[base[i].Off] = true
		}
	}
	for i := 1; i < len(shifted); i++ {
		if off := shifted[i].Off - shift; off >= 0 && shifted[i-1].Natural && starts[off] {
			return off, true
		}
	}
	return 0, false
}
