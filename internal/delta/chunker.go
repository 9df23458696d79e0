package delta

// Content-defined chunking for the chunk-level dedup store: the same
// rolling Adler-style weak hash the delta codec uses to find candidate
// blocks here decides chunk boundaries, so boundary positions depend only
// on the bytes inside a small sliding window. Identical content reaching
// the chunker at different offsets (a checkpoint payload shifted by a
// varying-length header, the same pages in two processes' images) cuts at
// the same content positions once the streams re-synchronize, which is
// what makes cross-chain deduplication by chunk identity work at all.

// Default chunking geometry. Avg is a statistical target (the boundary
// mask fires with probability 1/Avg per byte); Min and Max are hard
// bounds.
const (
	DefaultMinChunk = 2 << 10  // 2 KiB
	DefaultAvgChunk = 8 << 10  // 8 KiB, rounded to a power of two
	DefaultMaxChunk = 64 << 10 // 64 KiB
)

// MaxChunkCeiling is the hard ceiling on a chunk's length: Normalized
// clamps Max to it, and a dedup recipe naming a longer chunk is rejected
// before anything is sized by it.
const MaxChunkCeiling = 1 << 20 // 1 MiB

// chunkWindow is the rolling-hash window the boundary test looks at. It is
// deliberately small: a boundary must depend on only the last few dozen
// bytes so that streams with different prefixes re-converge quickly.
const chunkWindow = 48

// ChunkConfig parameterizes the chunker. The zero value selects the
// defaults above. Avg is rounded up to a power of two (the boundary test
// is a mask comparison); Min is clamped to between the hash window and
// half of MaxChunkCeiling, and Max to between 2·Min and MaxChunkCeiling,
// so every chunk but the last satisfies Min ≤ len ≤ Max.
type ChunkConfig struct {
	Min, Avg, Max int
}

// Normalized returns the effective configuration Chunks will use: defaults
// filled in, Avg rounded to a power of two, Min/Max clamped. Callers that
// persist or compare chunk geometry should normalize first.
func (c ChunkConfig) Normalized() ChunkConfig { return c.withDefaults() }

func (c ChunkConfig) withDefaults() ChunkConfig {
	if c.Min <= 0 {
		c.Min = DefaultMinChunk
	}
	if c.Avg <= 0 {
		c.Avg = DefaultAvgChunk
	}
	if c.Max <= 0 {
		c.Max = DefaultMaxChunk
	}
	c.Min = min(max(c.Min, chunkWindow), MaxChunkCeiling/2)
	// Round Avg up to a power of two for the mask test.
	avg := 1
	for avg < c.Avg {
		avg <<= 1
	}
	c.Avg = avg
	c.Max = min(max(c.Max, 2*c.Min), MaxChunkCeiling)
	return c
}

// Chunk is one chunker-delimited span of the input.
type Chunk struct {
	Off, Len int
	// Natural is set when the boundary after this chunk was chosen by the
	// rolling hash (content-defined). It is clear for boundaries forced by
	// the Max bound or by the end of the input — the cuts that do NOT
	// re-synchronize across shifted streams.
	Natural bool
}

// Chunks splits data into content-defined chunks. The result partitions
// data exactly (offsets are contiguous, lengths sum to len(data)); empty
// input yields no chunks. Chunking is deterministic, and a boundary
// depends only on the chunkWindow bytes preceding it plus the Min/Max
// bounds relative to the previous boundary — the shift-convergence
// property FuzzChunker pins down.
func Chunks(data []byte, cfg ChunkConfig) []Chunk {
	cfg = cfg.withDefaults()
	mask := uint32(cfg.Avg - 1)
	var out []Chunk
	start := 0
	for start < len(data) {
		rem := len(data) - start
		if rem <= cfg.Min {
			out = append(out, Chunk{Off: start, Len: rem})
			break
		}
		end := start + cfg.Max
		if end > len(data) {
			end = len(data)
		}
		// Seed the window with the chunkWindow bytes ending at the first
		// eligible cut position, then roll forward one byte at a time.
		h := newWeakHash(data[start+cfg.Min-chunkWindow : start+cfg.Min])
		cut, natural := end, false
		for pos := start + cfg.Min; pos < end; pos++ {
			if h.sum()&mask == mask {
				cut, natural = pos, true
				break
			}
			h = h.roll(data[pos-chunkWindow], data[pos])
		}
		out = append(out, Chunk{Off: start, Len: cut - start, Natural: natural})
		start = cut
	}
	return out
}
