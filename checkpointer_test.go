package aic

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"

	"aic/internal/numeric"
)

func TestProcessCheckpointRestoreRoundTrip(t *testing.T) {
	p := NewProcess(0)
	if p.PageSize() != 4096 {
		t.Fatalf("page size %d", p.PageSize())
	}
	p.Write(0, 0, []byte("hello"))
	p.Write(9, 100, bytes.Repeat([]byte{0xAB}, 256))
	chain := [][]byte{p.FullCheckpoint()}
	if p.DirtyPages() != 0 {
		t.Fatal("checkpoint must clear dirty tracking")
	}

	p.Write(0, 2, []byte("LLO!"))
	p.Write(3, 0, []byte("new page"))
	enc, st := p.DeltaCheckpoint()
	chain = append(chain, enc)
	if st.HotPages != 1 || st.RawPages != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Ratio() <= 0 || st.Ratio() > 1.2 {
		t.Fatalf("ratio %v", st.Ratio())
	}

	p.Free(9)
	p.Write(3, 8, []byte("again"))
	chain = append(chain, p.IncrementalCheckpoint())

	im, err := RestoreImage(chain)
	if err != nil {
		t.Fatal(err)
	}
	if !im.Matches(p) {
		t.Fatal("restored image differs")
	}
	if im.Pages() != p.Pages() {
		t.Fatal("page counts differ")
	}
	if im.Page(9) != nil {
		t.Fatal("freed page present after restore")
	}
	if got := im.Page(0); !bytes.Equal(got[:7], []byte("heLLO!\x00")) {
		t.Fatalf("page 0 = %q", got[:7])
	}
}

func TestRestoreImageErrors(t *testing.T) {
	if _, err := RestoreImage(nil); err == nil {
		t.Fatal("empty chain accepted")
	}
	if _, err := RestoreImage([][]byte{[]byte("garbage")}); err == nil {
		t.Fatal("garbage chain accepted")
	}
	// Chain must start with a full checkpoint.
	p := NewProcess(0)
	p.Write(0, 0, []byte{1})
	p.FullCheckpoint()
	p.Write(0, 1, []byte{2})
	inc := p.IncrementalCheckpoint()
	if _, err := RestoreImage([][]byte{inc}); err == nil {
		t.Fatal("incremental-first chain accepted")
	}
}

func TestDeltaEncodeDecodePublic(t *testing.T) {
	source := bytes.Repeat([]byte("abcdefgh"), 512)
	target := append([]byte(nil), source...)
	target[100] = 'X'
	stream := DeltaEncode(source, target, 0)
	if len(stream) >= len(target)/4 {
		t.Fatalf("delta %d bytes for a 1-byte edit", len(stream))
	}
	got, err := DeltaDecode(source, stream)
	if err != nil || !bytes.Equal(got, target) {
		t.Fatalf("round trip: %v", err)
	}
}

// Property: arbitrary write sequences survive full+delta chains.
func TestProcessChainProperty(t *testing.T) {
	f := func(writes []uint16, splits uint8) bool {
		p := NewProcess(256)
		var chain [][]byte
		for i, w := range writes {
			p.Write(uint64(w%32), int(w)%200, []byte{byte(i), byte(w)})
			if i == 0 {
				chain = append(chain, p.FullCheckpoint())
			} else if byte(i)%max8(splits%7+2) == 0 {
				enc, _ := p.DeltaCheckpoint()
				chain = append(chain, enc)
			}
		}
		if len(chain) == 0 {
			return true
		}
		enc, _ := p.DeltaCheckpoint()
		chain = append(chain, enc)
		im, err := RestoreImage(chain)
		return err == nil && im.Matches(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func max8(v uint8) byte {
	if v == 0 {
		return 1
	}
	return byte(v)
}

func TestCheckpointDirPersistence(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenCheckpointDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcess(256)
	p.Write(0, 0, []byte("persist me"))
	if err := store.Append(context.Background(), "proc-a", p.Seq(), p.FullCheckpoint()); err != nil {
		t.Fatal(err)
	}
	p.Write(0, 8, []byte("MORE"))
	p.Write(3, 0, []byte("fresh page"))
	enc, _ := p.DeltaCheckpoint()
	if err := store.Append(context.Background(), "proc-a", p.Seq()-1, enc); err != nil {
		t.Fatal(err)
	}

	// A different handle (fresh open) restores the same image.
	store2, err := OpenCheckpointDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := store2.Chain(context.Background(), "proc-a")
	if err != nil {
		t.Fatal(err)
	}
	im, err := RestoreImage(chain)
	if err != nil {
		t.Fatal(err)
	}
	if !im.Matches(p) {
		t.Fatal("restored image differs after reopen")
	}
	if err := store2.Remove(context.Background(), "proc-a"); err != nil {
		t.Fatal(err)
	}
	if chain, _ := store2.Chain(context.Background(), "proc-a"); len(chain) != 0 {
		t.Fatal("chain survived Remove")
	}
}

func TestCheckpointDirTruncate(t *testing.T) {
	store, err := OpenCheckpointDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcess(256)
	p.Write(0, 0, []byte{1})
	store.Append(context.Background(), "p", 0, p.FullCheckpoint())
	p.Write(0, 1, []byte{2})
	enc, _ := p.DeltaCheckpoint()
	store.Append(context.Background(), "p", 1, enc)
	// A new full checkpoint supersedes the old chain.
	full2 := p.FullCheckpoint()
	store.Append(context.Background(), "p", 2, full2)
	if err := store.Truncate(context.Background(), "p", 2); err != nil {
		t.Fatal(err)
	}
	chain, err := store.Chain(context.Background(), "p")
	if err != nil || len(chain) != 1 {
		t.Fatalf("chain after truncate: %d, %v", len(chain), err)
	}
	im, err := RestoreImage(chain)
	if err != nil || !im.Matches(p) {
		t.Fatalf("truncated chain restore: %v", err)
	}
}

// processFrames drives a Process through a fixed write stream — hot edits
// (delta pages), rewrites (deltas that fall back to raw), fresh pages and a
// freed page per step — taking full, delta and incremental checkpoints in
// turn. It returns the SHA-256 of every frame it emitted, and the page
// counts its delta checkpoints coded as deltas and stored raw.
func processFrames(parallelism int) (sum string, hot, raw int) {
	rng := numeric.NewRNG(2026)
	p := NewProcess(0, WithParallelism(parallelism))
	page := make([]byte, 4096)
	for i := uint64(0); i < 48; i++ {
		rng.Bytes(page)
		p.Write(i, 0, page)
	}
	h := sha256.New()
	emit := func(frame []byte) {
		h.Write(binary.AppendUvarint(nil, uint64(len(frame))))
		h.Write(frame)
	}
	for step := 0; step < 10; step++ {
		if step > 0 {
			for k := 0; k < 12; k++ {
				rng.Bytes(page[:40])
				p.Write(uint64(rng.Intn(48)), rng.Intn(4096-40), page[:40])
			}
			rng.Bytes(page)
			p.Write(uint64(step*5%48), 0, page)
			p.Write(uint64(60+step), 100, []byte("fresh"))
			p.Free(uint64(60 + step - 1))
		}
		switch step % 5 {
		case 0:
			emit(p.FullCheckpoint())
		case 4:
			emit(p.IncrementalCheckpoint())
		default:
			enc, st := p.DeltaCheckpoint()
			emit(enc)
			hot += st.HotPages
			raw += st.RawPages
		}
	}
	return hex.EncodeToString(h.Sum(nil)), hot, raw
}

// TestProcessFramesGolden pins every frame a Process emits to the bytes
// the two-pass encoder (page frames assembled into a payload, then the
// payload copied into the frame) emitted for the same write stream, at 1,
// 2 and 4 encode workers: the digest below was taken from that encoder.
func TestProcessFramesGolden(t *testing.T) {
	const golden = "e960a2420c259e41f56141f4401ef125fb366054ba0d3eab5a589c7b9deba70f"
	for _, par := range []int{1, 2, 4} {
		sum, hot, raw := processFrames(par)
		if sum != golden {
			t.Fatalf("parallelism %d: frames digest %s, want %s", par, sum, golden)
		}
		if hot == 0 || raw == 0 {
			t.Fatalf("parallelism %d: the stream coded %d delta and %d raw pages; it must cover both", par, hot, raw)
		}
	}
}
