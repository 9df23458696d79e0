package ckpt

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"aic/internal/delta"
	"aic/internal/memsim"
	"aic/internal/numeric"
	"aic/internal/par"
)

func TestKindString(t *testing.T) {
	if Full.String() != "full" || Incremental.String() != "incremental" ||
		IncrementalDelta.String() != "incremental+delta" {
		t.Fatal("names")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind must format")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := &Checkpoint{
		Seq:      7,
		Kind:     Incremental,
		PageSize: 4096,
		CPUState: []byte{1, 2, 3},
		Freed:    []uint64{4, 9, 1 << 40},
		Payload:  []byte("payload bytes"),
	}
	got, err := Decode(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || got.Kind != Incremental || got.PageSize != 4096 {
		t.Fatalf("header: %+v", got)
	}
	if !bytes.Equal(got.CPUState, c.CPUState) || !bytes.Equal(got.Payload, c.Payload) {
		t.Fatal("blobs")
	}
	if len(got.Freed) != 3 || got.Freed[2] != 1<<40 {
		t.Fatalf("freed: %v", got.Freed)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("WRONGMAG\x01\x00"),
		append([]byte("AICCKPT1"), 99),         // bad kind
		append([]byte("AICCKPT1"), byte(Full)), // truncated
		append([]byte("AICCKPT1"), byte(Full), 0x80), // bad varint
	}
	for i, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

// TestDecodeEncodedSizeMatchesSize pins Size, which is computed from the
// header fields, to the encoded length: every kind, and every field
// straddling a uvarint length boundary.
func TestDecodeEncodedSizeMatchesSize(t *testing.T) {
	for _, kind := range []Kind{Full, Incremental, IncrementalDelta, Stripe} {
		for _, n := range []int{0, 1, 127, 128, 16383, 16384} {
			c := &Checkpoint{
				Seq:      n << 7,
				Kind:     kind,
				PageSize: n,
				CPUState: make([]byte, n%300),
				Freed:    []uint64{uint64(n), 1 << 63},
				Payload:  make([]byte, n),
			}
			if c.Size() != len(c.Encode()) {
				t.Fatalf("%v, n=%d: Size %d, encoded %d", kind, n, c.Size(), len(c.Encode()))
			}
		}
	}
}

func writeRandomPages(as *memsim.AddressSpace, rng *numeric.RNG, idxs []uint64, now float64) {
	buf := make([]byte, as.PageSize())
	for _, idx := range idxs {
		rng.Bytes(buf)
		as.Write(idx, 0, buf, now)
	}
}

func TestFullPlusIncrementalRestore(t *testing.T) {
	rng := numeric.NewRNG(1)
	as := memsim.New(256)
	b := NewBuilder(256, 0, 64)

	writeRandomPages(as, rng, []uint64{0, 1, 2, 3, 4}, 0)
	full := b.FullCheckpoint(as)
	if full.Kind != Full || full.Seq != 0 {
		t.Fatalf("full: %+v", full)
	}
	if as.DirtyCount() != 0 {
		t.Fatal("checkpoint must reset dirty tracking")
	}

	writeRandomPages(as, rng, []uint64{1, 3, 7}, 1)
	inc := b.IncrementalCheckpoint(as)
	if inc.Seq != 1 {
		t.Fatalf("seq = %d", inc.Seq)
	}

	as.Free(2)
	writeRandomPages(as, rng, []uint64{0, 7}, 2)
	inc2 := b.IncrementalCheckpoint(as)
	if len(inc2.Freed) != 1 || inc2.Freed[0] != 2 {
		t.Fatalf("freed = %v", inc2.Freed)
	}

	restored, err := Restore([]*Checkpoint{full, inc, inc2})
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Equal(as) {
		t.Fatal("restored image differs from live process")
	}
}

func TestDeltaCheckpointRestore(t *testing.T) {
	rng := numeric.NewRNG(2)
	as := memsim.New(4096)
	b := NewBuilder(4096, 0, 128)

	writeRandomPages(as, rng, []uint64{0, 1, 2, 3}, 0)
	full := b.FullCheckpoint(as)

	// Interval 1: modify pages 1,2 (they're in prev → hot) lightly.
	as.Write(1, 10, []byte{0xAA, 0xBB}, 1)
	as.Write(2, 2000, []byte{0xCC}, 1)
	d1, st1 := b.DeltaCheckpoint(as)
	if st1.HotPages != 2 || st1.RawPages != 0 {
		t.Fatalf("stats1: %+v", st1)
	}
	if st1.Ratio() > 0.2 {
		t.Fatalf("light edits should compress hard, ratio = %v", st1.Ratio())
	}

	// Interval 2: page 1 dirty again (hot: it was in checkpoint 1); page 3
	// dirty (not in checkpoint 1 → raw); new page 9.
	as.Write(1, 20, []byte{0xEE}, 2)
	writeRandomPages(as, rng, []uint64{3, 9}, 2)
	d2, st2 := b.DeltaCheckpoint(as)
	if st2.HotPages != 1 || st2.RawPages != 2 {
		t.Fatalf("stats2: %+v", st2)
	}

	restored, err := Restore([]*Checkpoint{full, d1, d2})
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Equal(as) {
		t.Fatal("delta chain restore mismatch")
	}
}

func TestIsHotTracksPreviousInterval(t *testing.T) {
	rng := numeric.NewRNG(3)
	as := memsim.New(128)
	b := NewBuilder(128, 0, 0)
	writeRandomPages(as, rng, []uint64{0, 1}, 0)
	b.FullCheckpoint(as)
	writeRandomPages(as, rng, []uint64{1, 5}, 1)
	b.IncrementalCheckpoint(as)
	// After the incremental, only pages 1 and 5 are in prev.
	if b.IsHot(0) {
		t.Fatal("page 0 was not in previous checkpoint interval")
	}
	if !b.IsHot(1) || !b.IsHot(5) {
		t.Fatal("pages 1/5 must be hot-eligible")
	}
	if b.PrevPage(5) == nil || b.PrevPage(0) != nil {
		t.Fatal("PrevPage")
	}
}

func TestRestoreErrors(t *testing.T) {
	rng := numeric.NewRNG(4)
	as := memsim.New(64)
	b := NewBuilder(64, 0, 0)
	writeRandomPages(as, rng, []uint64{0}, 0)
	full := b.FullCheckpoint(as)
	writeRandomPages(as, rng, []uint64{0}, 1)
	inc := b.IncrementalCheckpoint(as)

	if _, err := Restore(nil); err == nil {
		t.Fatal("empty chain accepted")
	}
	if _, err := Restore([]*Checkpoint{inc}); err == nil {
		t.Fatal("chain without full accepted")
	}
	if _, err := Restore([]*Checkpoint{full, full}); err == nil {
		t.Fatal("mid-chain full accepted")
	}
	gap := *inc
	gap.Seq = 5
	if _, err := Restore([]*Checkpoint{full, &gap}); err == nil {
		t.Fatal("sequence gap accepted")
	}
	bad := *inc
	bad.PageSize = 128
	if _, err := Restore([]*Checkpoint{full, &bad}); err == nil {
		t.Fatal("page size change accepted")
	}
}

func TestDeltaSmallerThanIncremental(t *testing.T) {
	// The headline size claim: with partial page modifications, the delta
	// checkpoint is much smaller than the raw incremental one.
	rng := numeric.NewRNG(5)
	asA := memsim.New(4096)
	asB := memsim.New(4096)
	bA := NewBuilder(4096, 0, 0)
	bB := NewBuilder(4096, 0, 0)
	idxs := make([]uint64, 64)
	for i := range idxs {
		idxs[i] = uint64(i)
	}
	buf := make([]byte, 4096)
	for _, idx := range idxs {
		rng.Bytes(buf)
		asA.Write(idx, 0, buf, 0)
		asB.Write(idx, 0, buf, 0)
	}
	bA.FullCheckpoint(asA)
	bB.FullCheckpoint(asB)
	for _, idx := range idxs {
		asA.Write(idx, int(idx)%4000, []byte{1, 2, 3, 4}, 1)
		asB.Write(idx, int(idx)%4000, []byte{1, 2, 3, 4}, 1)
	}
	inc := bA.IncrementalCheckpoint(asA)
	del, _ := bB.DeltaCheckpoint(asB)
	if del.Size()*5 > inc.Size() {
		t.Fatalf("delta %d not ≪ incremental %d", del.Size(), inc.Size())
	}
}

// Property: any random sequence of writes/frees across checkpoints restores
// to the live image.
func TestRestoreChainProperty(t *testing.T) {
	f := func(seed uint32, kindsRaw []bool) bool {
		if len(kindsRaw) > 6 {
			kindsRaw = kindsRaw[:6]
		}
		r := numeric.NewRNG(uint64(seed))
		as := memsim.New(512)
		b := NewBuilder(512, 0, 32)
		buf := make([]byte, 512)
		for i := 0; i < 10; i++ {
			r.Bytes(buf)
			as.Write(uint64(r.Intn(20)), 0, buf, 0)
		}
		chain := []*Checkpoint{b.FullCheckpoint(as)}
		for step, useDelta := range kindsRaw {
			now := float64(step + 1)
			for i := 0; i < 1+r.Intn(8); i++ {
				idx := uint64(r.Intn(24))
				off := r.Intn(500)
				n := 1 + r.Intn(12)
				chunk := make([]byte, n)
				r.Bytes(chunk)
				as.Write(idx, off, chunk, now)
			}
			if r.Intn(3) == 0 {
				mapped := as.MappedPages()
				as.Free(mapped[r.Intn(len(mapped))])
			}
			if useDelta {
				c, _ := b.DeltaCheckpoint(as)
				chain = append(chain, c)
			} else {
				chain = append(chain, b.IncrementalCheckpoint(as))
			}
		}
		restored, err := Restore(chain)
		return err == nil && restored.Equal(as)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	rng := numeric.NewRNG(6)
	as := memsim.New(256)
	b := NewBuilder(256, 0, 16)
	writeRandomPages(as, rng, []uint64{0, 1, 2}, 0)
	enc := b.FullCheckpoint(as).Encode()
	// Every single-byte flip anywhere in the stream must be caught.
	for _, off := range []int{0, 9, len(enc) / 2, len(enc) - 5, len(enc) - 1} {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x01
		if _, err := Decode(mut); err == nil {
			t.Fatalf("flip at %d accepted", off)
		}
	}
	// Truncation is caught too.
	if _, err := Decode(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// The pristine stream still decodes.
	if _, err := Decode(enc); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumErrorIsTyped(t *testing.T) {
	as := memsim.New(64)
	as.Write(0, 0, []byte{1}, 0)
	b := NewBuilder(64, 0, 0)
	enc := b.FullCheckpoint(as).Encode()
	enc[len(enc)-1] ^= 0xFF
	if _, err := Decode(enc); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

// encodedChain drives a builder with the given worker knob over a fixed
// write stream and returns its encoded full and delta checkpoints.
func encodedChain(parallelism int) [][]byte {
	rng := numeric.NewRNG(99)
	as := memsim.New(0)
	b := NewBuilder(as.PageSize(), 0, 64, WithParallelism(parallelism))
	writeRandomPages(as, rng, []uint64{0, 1, 2, 3, 4, 5, 6, 7}, 0)
	out := [][]byte{b.FullCheckpoint(as).Encode()}
	for step := 1; step <= 4; step++ {
		// Rewrite a moving subset: some lightly edited (hot), one fully
		// rewritten (raw fallback), one fresh page.
		as.Write(uint64(step%5), 7, []byte{byte(step), 0x5A}, float64(step))
		as.Write(uint64(step%3), 900, []byte{0xF0 ^ byte(step)}, float64(step))
		writeRandomPages(as, rng, []uint64{uint64(step % 7), uint64(20 + step)}, float64(step))
		c, _ := b.DeltaCheckpoint(as)
		out = append(out, c.Encode())
	}
	return out
}

// TestParallelismProducesIdenticalCheckpoints drives two builders over the
// same write stream, one serial and one with the full worker pool, and
// requires byte-identical delta checkpoints — the portability contract of
// the parallel encode pipeline.
func TestParallelismProducesIdenticalCheckpoints(t *testing.T) {
	serial, parallel := encodedChain(1), encodedChain(0)
	if len(serial) != len(parallel) {
		t.Fatalf("chain lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Fatalf("checkpoint %d differs between serial and parallel builders", i)
		}
	}
	// Both chains must restore to the same image.
	chain := make([]*Checkpoint, len(parallel))
	for i, data := range parallel {
		c, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		chain[i] = c
	}
	if _, err := Restore(chain); err != nil {
		t.Fatal(err)
	}
}

// TestNegativeParallelismClamps: a negative worker knob is the default
// (GOMAXPROCS) at a worker count of at least 1, and its builder, fanning
// out on four procs, emits the serial builder's checkpoints byte for byte.
func TestNegativeParallelismClamps(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if got, want := par.Workers(-3, 64), par.Workers(0, 64); got != want || got < 1 {
		t.Fatalf("par.Workers(-3, 64) = %d, want the default %d", got, want)
	}
	serial, negative := encodedChain(1), encodedChain(-3)
	if len(serial) != len(negative) {
		t.Fatalf("chain lengths differ: %d vs %d", len(serial), len(negative))
	}
	for i := range serial {
		if !bytes.Equal(serial[i], negative[i]) {
			t.Fatalf("checkpoint %d differs between serial and negative-knob builders", i)
		}
	}
}

// wrongSizePage is a CRC-valid delta checkpoint following full (page size
// 4096) whose one page decodes to n bytes: a raw frame when n exceeds the
// page, a delta frame against page 0 when it falls short.
func wrongSizePage(t *testing.T, full *Checkpoint, as *memsim.AddressSpace, n int) *Checkpoint {
	t.Helper()
	u := delta.PageUpdate{Index: 0, New: make([]byte, n)}
	if n < full.PageSize {
		u.Old = as.Page(0)
		u.New = append([]byte(nil), u.Old[:n]...)
	}
	payload, _ := delta.EncodePageAlignedParallelStats([]delta.PageUpdate{u}, 0, 1)
	c := &Checkpoint{Seq: full.Seq + 1, Kind: IncrementalDelta, PageSize: full.PageSize, Payload: payload}
	decoded, err := Decode(c.Encode())
	if err != nil {
		t.Fatalf("wrong-size element does not pass Decode: %v", err)
	}
	return decoded
}

// TestRestoreRejectsWrongSizePages: an element whose page decodes longer
// than the page size must fail (not panic in the address space), and one
// that decodes short must fail rather than keep the previous image's tail.
func TestRestoreRejectsWrongSizePages(t *testing.T) {
	rng := numeric.NewRNG(25)
	as := memsim.New(4096)
	writeRandomPages(as, rng, []uint64{0, 1}, 0)
	full := NewBuilder(4096, 0, 0).FullCheckpoint(as)
	for _, n := range []int{5000, 100} {
		_, err := Restore([]*Checkpoint{full, wrongSizePage(t, full, as, n)})
		var elemErr *ElementError
		if !errors.Is(err, ErrBadCheckpoint) || !errors.As(err, &elemErr) || elemErr.Elem != 1 {
			t.Fatalf("page decoding to %d bytes: err = %v, want ErrBadCheckpoint at element 1", n, err)
		}
	}
}
