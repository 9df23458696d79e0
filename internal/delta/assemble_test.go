package delta

import (
	"bytes"
	"encoding/binary"
	"testing"

	"aic/internal/numeric"
)

// twoPassStream is the stream construction the one-buffer assembler
// replaced, kept as the byte-identity reference: every page's whole frame —
// a raw page's bytes included — coded into a scratch buffer, then appended
// to the growing stream behind the page count.
func twoPassStream(updates []PageUpdate, blockSize int) ([]byte, Stats) {
	var e Encoder
	sorted := sortUpdates(updates)
	out := binary.AppendUvarint(nil, uint64(len(sorted)))
	var st Stats
	for _, u := range sorted {
		frame := binary.AppendUvarint(nil, u.Index)
		mode := byte(PageRaw)
		payload := u.New
		if u.Old != nil {
			var d []byte
			if len(u.Old) == len(u.New) {
				d = e.encodeAligned(u.Old, u.New, blockSize)
			} else {
				d = e.Encode(u.Old, u.New, blockSize)
			}
			if len(d) < len(u.New) {
				mode, payload = PageDelta, d
			}
		}
		frame = append(frame, mode)
		frame = binary.AppendUvarint(frame, uint64(len(payload)))
		out = append(out, append(frame, payload...)...)
		st.count(u, mode)
	}
	st.OutputBytes = len(out)
	return out, st
}

// TestAssemblerMatchesTwoPassStream pins the one-buffer assembler to the
// old construction, byte for byte, at every worker count: raw pages, delta
// pages, deltas that fell back to raw, a page whose old version differs in
// length, unsorted input, and an enclosing frame written around the stream.
func TestAssemblerMatchesTwoPassStream(t *testing.T) {
	rng := numeric.NewRNG(28)
	for _, pageSize := range []int{64, 512, 4096} {
		for _, n := range []int{0, 1, 3, 40, 200} {
			updates, _ := randomUpdates(rng, n, pageSize)
			if n > 2 {
				updates[0], updates[n-1] = updates[n-1], updates[0]
				updates[1].Old = updates[1].New[:pageSize/2]
			}
			want, wantStats := twoPassStream(updates, DefaultBlockSize)
			for _, workers := range []int{1, 2, 4} {
				got, st := EncodePageAlignedParallelStats(updates, DefaultBlockSize, workers)
				if !bytes.Equal(got, want) || st != wantStats {
					t.Fatalf("pageSize=%d n=%d workers=%d: stream differs from the two-pass construction", pageSize, n, workers)
				}
				if cap(got) != len(got) {
					t.Fatalf("pageSize=%d n=%d workers=%d: stream buffer cap %d, len %d: not sized once", pageSize, n, workers, cap(got), len(got))
				}
				prefix := []byte("header")
				framed, st := EncodePageAlignedInto(updates, DefaultBlockSize, workers, func(n int) []byte {
					if n != len(want) {
						t.Fatalf("head asked for a %d-byte stream, want %d", n, len(want))
					}
					return prefix
				}, 4)
				if !bytes.Equal(framed, append(prefix, want...)) || st != wantStats || cap(framed) != len(framed)+4 {
					t.Fatalf("pageSize=%d n=%d workers=%d: framed stream differs", pageSize, n, workers)
				}
			}
		}
	}
}
