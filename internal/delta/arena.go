package delta

import "sync"

// arenaChunkMin is the smallest chunk a frameArena allocates; frames larger
// than this get a dedicated chunk.
const arenaChunkMin = 256 << 10

// frameArena hands out stable buffers carved from large pooled chunks for
// the encoder's page heads — each page's index, mode and length, plus a
// delta page's delta — so a worker's per-page copy stops hitting the
// allocator once warm. A raw page's bytes never pass through it: the
// assembler copies them straight from the update into the stream. A chunk
// is never grown in place — every slice handed out stays valid until the
// arena is released — which is the property that lets workers publish
// heads into the shared assembly slice while the arena keeps allocating.
//
// A frameArena is not safe for concurrent use; the encoder draws one per
// worker and releases them only after stream assembly has copied the heads
// out.
type frameArena struct {
	chunks [][]byte
	cur    int // chunk currently being filled
}

// copyFrame stores a copy of p in the arena and returns the stable copy.
func (a *frameArena) copyFrame(p []byte) []byte {
	n := len(p)
	for {
		if a.cur < len(a.chunks) {
			c := a.chunks[a.cur]
			if cap(c)-len(c) >= n {
				off := len(c)
				a.chunks[a.cur] = c[:off+n]
				dst := c[off : off+n : off+n]
				copy(dst, p)
				return dst
			}
			a.cur++
			continue
		}
		size := arenaChunkMin
		if n > size {
			size = n
		}
		a.chunks = append(a.chunks, make([]byte, 0, size))
	}
}

// reset forgets every frame while keeping the chunks for reuse.
func (a *frameArena) reset() {
	for i := range a.chunks {
		a.chunks[i] = a.chunks[i][:0]
	}
	a.cur = 0
}

// arenaPool recycles frame arenas across encode runs — the "across Builder
// runs" half of the scratch reuse: a steady-state checkpoint loop reuses
// the same chunks every interval.
var arenaPool = sync.Pool{New: func() any { return new(frameArena) }}

func getArena() *frameArena { return arenaPool.Get().(*frameArena) }

// putArena resets and returns an arena to the pool. Frames it handed out
// must no longer be referenced.
func putArena(a *frameArena) {
	a.reset()
	arenaPool.Put(a)
}
