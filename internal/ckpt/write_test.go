package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"

	"aic/internal/delta"
	"aic/internal/memsim"
	"aic/internal/numeric"
)

// twoPassEncode is the frame construction the frame writer replaced, kept
// as the byte-identity reference: the header fields and the payload
// appended to a growing buffer, then the CRC-32C of it all.
func twoPassEncode(c *Checkpoint, payload []byte) []byte {
	out := append([]byte(nil), magic[:]...)
	out = append(out, byte(c.Kind))
	out = binary.AppendUvarint(out, uint64(c.Seq))
	out = binary.AppendUvarint(out, uint64(c.PageSize))
	out = binary.AppendUvarint(out, uint64(len(c.CPUState)))
	out = append(out, c.CPUState...)
	out = binary.AppendUvarint(out, uint64(len(c.Freed)))
	for _, idx := range c.Freed {
		out = binary.AppendUvarint(out, idx)
	}
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// twoPassRawPages is the raw page list as the old encoder built it, from
// the test's own copy of the pages.
func twoPassRawPages(pages map[uint64][]byte, idxs []uint64) []byte {
	out := binary.AppendUvarint(nil, uint64(len(idxs)))
	for _, idx := range idxs {
		out = binary.AppendUvarint(out, idx)
		out = append(out, pages[idx]...)
	}
	return out
}

// TestBuilderFramesMatchTwoPassEncode drives builders at 1, 2 and 4 encode
// workers through full, incremental and delta checkpoints — hot edits
// (delta pages), rewrites (deltas that fall back to raw), fresh pages,
// freed pages (one and several at a time) and a changing CPU state — and
// requires every frame to equal the two-pass construction over a shadow
// model the test keeps itself: the pages, the pages the previous checkpoint
// saved, and the mapped set it saw.
func TestBuilderFramesMatchTwoPassEncode(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rng := numeric.NewRNG(28)
			as := memsim.New(512)
			b := NewBuilder(512, 0, 0, WithParallelism(workers))
			shadow := map[uint64][]byte{} // the pages, as the test wrote them
			var saved map[uint64][]byte   // the previous checkpoint's pages
			var mapped []uint64           // the mapped set it saw
			write := func(idx uint64, off int, data []byte) {
				as.Write(idx, off, data, 0)
				if shadow[idx] == nil {
					shadow[idx] = make([]byte, 512)
				}
				copy(shadow[idx][off:], data)
			}
			free := func(idx uint64) {
				as.Free(idx)
				delete(shadow, idx)
			}
			page := make([]byte, 512)
			for idx := uint64(0); idx < 40; idx++ {
				rng.Bytes(page)
				write(idx, 0, page)
			}
			for step := 0; step < 12; step++ {
				kind := []Kind{Full, IncrementalDelta, IncrementalDelta, Incremental}[step%4]
				if step > 0 {
					for k := 0; k < 6; k++ { // hot edits
						write(uint64(rng.Intn(40)), rng.Intn(500), []byte{byte(step), byte(k), 0x5A})
					}
					rng.Bytes(page) // a rewrite: its delta falls back to raw
					write(uint64(step%40), 0, page)
					write(uint64(100+step), 7, []byte{byte(step)}) // a fresh page
					free(uint64(20 + step))                        // freed pages
					if step%3 == 0 {
						free(uint64(100 + step - 1))
						free(uint64(1))
					}
				}
				cpu := []byte{byte(step), 0xC0, byte(step * 7)}
				b.SetCPUState(cpu)
				dirty := as.DirtyPages()
				want := &Checkpoint{Seq: step, Kind: kind, PageSize: 512, CPUState: cpu}
				var payload []byte
				switch kind {
				case Full:
					dirty = as.MappedPages()
					payload = twoPassRawPages(shadow, dirty)
				case Incremental:
					payload = twoPassRawPages(shadow, dirty)
				case IncrementalDelta:
					var updates []delta.PageUpdate
					for _, idx := range dirty {
						updates = append(updates, delta.PageUpdate{Index: idx, Old: saved[idx], New: shadow[idx]})
					}
					payload, _ = delta.EncodePageAlignedParallelStats(updates, 0, 1)
				}
				if kind != Full {
					for _, idx := range mapped {
						if shadow[idx] == nil {
							want.Freed = append(want.Freed, idx)
						}
					}
				}
				var c *Checkpoint
				switch kind {
				case Full:
					c = b.FullCheckpoint(as)
				case Incremental:
					c = b.IncrementalCheckpoint(as)
				case IncrementalDelta:
					c, _ = b.DeltaCheckpoint(as)
				}
				frame := twoPassEncode(want, payload)
				if !bytes.Equal(c.Encode(), frame) {
					t.Fatalf("step %d (%v): frame differs from the two-pass construction", step, kind)
				}
				if !bytes.Equal(c.Payload, payload) || c.Size() != len(frame) || !slices.Equal(c.Freed, want.Freed) {
					t.Fatalf("step %d (%v): fields disagree with the frame", step, kind)
				}
				if got, err := Decode(c.Encode()); err != nil || !bytes.Equal(got.Payload, payload) {
					t.Fatalf("step %d: frame does not decode: %v", step, err)
				}
				saved = map[uint64][]byte{}
				for _, idx := range dirty {
					saved[idx] = bytes.Clone(shadow[idx])
				}
				mapped = as.MappedPages()
				for idx := uint64(0); idx < 120; idx++ {
					if !bytes.Equal(b.PrevPage(idx), saved[idx]) || b.IsHot(idx) != (saved[idx] != nil) {
						t.Fatalf("step %d: PrevPage(%d) disagrees with the saved page", step, idx)
					}
				}
			}
		})
	}
}

// TestFullFromImageMatchesTwoPassEncode pins the compactor's anchor frame
// the same way.
func TestFullFromImageMatchesTwoPassEncode(t *testing.T) {
	as := memsim.New(256)
	pages := map[uint64][]byte{}
	rng := numeric.NewRNG(3)
	for _, idx := range []uint64{9, 2, 300, 5} {
		p := make([]byte, 256)
		rng.Bytes(p)
		as.Write(idx, 0, p, 0)
		pages[idx] = p
	}
	c := FullFromImage(as, 4, []byte("cpu"))
	want := twoPassEncode(&Checkpoint{Seq: 4, Kind: Full, PageSize: 256, CPUState: []byte("cpu")},
		twoPassRawPages(pages, []uint64{2, 5, 9, 300}))
	if !bytes.Equal(c.Encode(), want) {
		t.Fatal("FullFromImage frame differs from the two-pass construction")
	}
}

// twoPassSplit is the stripe split the one-pass split replaced, kept as the
// byte-identity reference: a CRC pass over the whole object for Sum, then
// each part copied into a checkpoint payload and encoded (a second copy and
// a second CRC pass). It panics where the old split did.
func twoPassSplit(seq int, encoded []byte, count int) ([]byte, [][]byte) {
	total := int64(len(encoded))
	sum := crc32.Checksum(encoded, crcTable)
	parts := make([][]byte, count)
	per := (len(encoded) + count - 1) / count
	for i := 0; i < count; i++ {
		lo := i * per
		hi := min(lo+per, len(encoded))
		parts[i] = EncodeStripePart(seq, i, count, total, sum, encoded[lo:hi])
	}
	return EncodeStripeManifest(seq, count, total, sum), parts
}

// TestSplitStripesMatchesTwoPass requires the one-pass split to emit the
// old split's manifest and parts, byte for byte, wherever the old one did
// not panic — divisible and non-divisible sizes, 2 to 8 stripes.
func TestSplitStripesMatchesTwoPass(t *testing.T) {
	rng := numeric.NewRNG(11)
	for _, n := range []int{2, 3, 7, 20, 129, 1000, 4096, 65537, 1 << 20} {
		obj := make([]byte, n)
		rng.Bytes(obj)
		for count := 2; count <= 8 && count <= n; count++ {
			per := (n + count - 1) / count
			if (count-1)*per > n {
				continue // the old split panicked here
			}
			wantMan, wantParts := twoPassSplit(3, obj, count)
			man, parts, err := SplitStripes(3, obj, count)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(man, wantMan) {
				t.Fatalf("n=%d count=%d: manifest differs", n, count)
			}
			for i := range parts {
				if !bytes.Equal(parts[i], wantParts[i]) {
					t.Fatalf("n=%d count=%d: part %d differs", n, count, i)
				}
			}
		}
	}
}

// TestSplitStripesUnevenSizes: every split reassembles to the object,
// including the sizes where ⌈n/count⌉-byte parts run out before the last
// stripe, which used to panic.
func TestSplitStripesUnevenSizes(t *testing.T) {
	for _, tc := range []struct{ n, count int }{
		{7, 5},  // parts of 2, 2, 2, 1, 0
		{20, 8}, // an empty delta checkpoint into 8 stripes
		{9, 4},  // the last part empty
		{10, 4}, // the last part short
		{12, 4}, // even
	} {
		obj := bytes.Repeat([]byte{0xA5}, tc.n)
		man, parts, err := SplitStripes(1, obj, tc.count)
		if err != nil {
			t.Fatalf("%d bytes into %d: %v", tc.n, tc.count, err)
		}
		mf, sfs := decodeSet(t, man, parts)
		got, err := ReassembleStripes(mf, sfs)
		if err != nil || !bytes.Equal(got, obj) {
			t.Fatalf("%d bytes into %d: reassembly (%v)", tc.n, tc.count, err)
		}
	}
}

// TestCRC32Combine: the combined CRC of two halves equals the CRC of the
// whole, on random splits, empty halves included.
func TestCRC32Combine(t *testing.T) {
	rng := numeric.NewRNG(5)
	buf := make([]byte, 70000)
	rng.Bytes(buf)
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(len(buf) + 1)
		if trial%10 == 0 {
			n = trial % 70
		}
		whole := buf[:n]
		cut := rng.Intn(n + 1)
		switch trial % 5 {
		case 0:
			cut = 0
		case 1:
			cut = n
		}
		a, b := whole[:cut], whole[cut:]
		got := crc32Combine(crc32.Checksum(a, crcTable), crc32.Checksum(b, crcTable), len(b))
		if want := crc32.Checksum(whole, crcTable); got != want {
			t.Fatalf("n=%d cut=%d: combined %08x, whole %08x", n, cut, got, want)
		}
	}
}

// TestChecksumMatchesOnePass: the piecewise CRC-32C that Decode and seal
// compute on several workers equals one pass over the same bytes, around
// every piece boundary and at every worker count, serial included.
func TestChecksumMatchesOnePass(t *testing.T) {
	buf := make([]byte, 5*crcPiece+3)
	numeric.NewRNG(6).Bytes(buf)
	for _, n := range []int{0, 1, crcPiece, 2*crcPiece - 1, 2 * crcPiece, 2*crcPiece + 1, 3 * crcPiece, len(buf)} {
		want := crc32.Checksum(buf[:n], crcTable)
		for _, workers := range []int{1, 2, 3, 0} {
			if got := checksum(buf[:n], workers); got != want {
				t.Fatalf("%d bytes on %d workers: %08x, one pass %08x", n, workers, got, want)
			}
		}
	}
}
