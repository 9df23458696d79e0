package storage

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"aic/internal/delta"
)

// encodeRecipeV1 is the AICRCPS1 encoder stores used before the list hash:
// the same layout, with the whole payload's SHA-256 in the hash field. It
// is kept here so the tests can write what older stores left on disk.
func encodeRecipeV1(total int, sum chunkID, lens []int, ids []chunkID) []byte {
	out := append([]byte(nil), recipeMagicV1[:]...)
	out = binary.AppendUvarint(out, uint64(total))
	out = append(out, sum[:]...)
	out = binary.AppendUvarint(out, uint64(len(ids)))
	for i, id := range ids {
		out = binary.AppendUvarint(out, uint64(lens[i]))
		out = append(out, id[:]...)
	}
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcCastagnoli))
}

// sealRecipe builds a CRC-valid recipe from raw fields: the magic, the
// payload length uvarint, the hash field, the chunk count uvarint and the
// entry bytes. With hash nil the AICRCPS2 list hash is computed, so only
// the structural checks can reject the result.
func sealRecipe(magic [8]byte, total uint64, hash []byte, count uint64, entries []byte) []byte {
	out := append([]byte(nil), magic[:]...)
	out = binary.AppendUvarint(out, total)
	if hash == nil {
		sum := listHash(binary.AppendUvarint(nil, total), entries)
		hash = sum[:]
	}
	out = append(out, hash...)
	out = binary.AppendUvarint(out, count)
	out = append(out, entries...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcCastagnoli))
}

// hostileRecipes are CRC-valid recipes that name more memory than their
// bytes pay for. The AICRCPS1 rows are what a store before the bounds
// accepted or sized; the AICRCPS2 rows carry a correct list hash.
func hostileRecipes() []struct {
	name string
	data []byte
} {
	entry := func(l uint64) []byte {
		var id chunkID
		return append(binary.AppendUvarint(nil, l), id[:]...)
	}
	hash := make([]byte, sha256.Size)
	// A count as large as the entry bytes: what "each entry is ≥ 1 byte"
	// allows, and recipeEntryMin times what the bytes can hold.
	filler := make([]byte, 1<<20)
	return []struct {
		name string
		data []byte
	}{
		{"v1 chunk of 2^40 bytes", sealRecipe(recipeMagicV1, 1<<40, hash, 1, entry(1<<40))},
		{"v1 chunk length ≥ 2^63", sealRecipe(recipeMagicV1, 1<<63+5, hash, 1, entry(1<<63+5))},
		{"v1 count past entry bytes", sealRecipe(recipeMagicV1, 0, hash, uint64(len(filler)), filler)},
		{"v2 chunk of 2^40 bytes", sealRecipe(recipeMagic, 1<<40, nil, 1, entry(1<<40))},
		{"v2 chunk one past the ceiling", sealRecipe(recipeMagic, delta.MaxChunkCeiling+1, nil, 1, entry(delta.MaxChunkCeiling+1))},
		{"v2 count past entry bytes", sealRecipe(recipeMagic, 0, nil, uint64(len(filler)), filler)},
	}
}

// TestParseRecipeBounds: a CRC-valid recipe cannot size memory it did not
// pay for. Each row is rejected, and parsing it allocates at most a small
// multiple of its own size.
func TestParseRecipeBounds(t *testing.T) {
	for _, tc := range hostileRecipes() {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r, err := parseRecipe(tc.data)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("accepted: %d chunks, total %d", len(r.ids), r.total)
			}
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(tc.data)+64<<10); got > limit {
				t.Fatalf("rejecting a %d-byte recipe allocated %d bytes (limit %d)", len(tc.data), got, limit)
			}
		})
	}
	// At the ceiling is still a recipe.
	var id chunkID
	ok := encodeRecipe([]int{delta.MaxChunkCeiling}, []chunkID{id})
	if _, err := parseRecipe(ok); err != nil {
		t.Fatalf("chunk at the ceiling rejected: %v", err)
	}
}

// TestHostileRecipeReadsAsMissing: a store holds a payload that is a
// hostile recipe verbatim (a store without dedup keeps any payload raw),
// and reading it lists the seq missing instead of sizing the payload.
func TestHostileRecipeReadsAsMissing(t *testing.T) {
	ctx := context.Background()
	for _, tc := range hostileRecipes() {
		t.Run(tc.name, func(t *testing.T) {
			st := NewMemStore(Target{Name: "mem"})
			if err := st.Put(ctx, "p", 0, tc.data); err != nil {
				t.Fatal(err)
			}
			chain, missing, err := st.Get(ctx, "p")
			if err != nil || len(chain) != 0 || !slices.Equal(missing, []int{0}) {
				t.Fatalf("Get: %d stored, missing %v, err %v", len(chain), missing, err)
			}
		})
	}
}

// recipeOf parses the recipe file committed for (proc, seq).
func recipeOf(t *testing.T, fs *FSStore, proc string, seq int) (string, *parsedRecipe) {
	t.Helper()
	path := ElemPath(fs.root, proc, seq)
	raw, err := fs.fsys.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := parseRecipe(raw)
	if err != nil {
		t.Fatalf("seq %d: %v", seq, err)
	}
	return path, r
}

// TestRecipeV1StillResolves: an AICRCPS1 recipe, as older stores wrote
// them, resolves byte-identically, counts in the reopened index, and is
// rejected when its payload hash is wrong.
func TestRecipeV1StillResolves(t *testing.T) {
	ctx := context.Background()
	fs := newDedupFS(t)
	rng := rand.New(rand.NewSource(11))
	var want [][]byte
	for seq := 0; seq < 2; seq++ {
		payload := make([]byte, 6<<10)
		rng.Read(payload)
		want = append(want, frame(seq, payload))
		if err := fs.Put(ctx, "p", seq, want[seq]); err != nil {
			t.Fatal(err)
		}
		path, r := recipeOf(t, fs, "p", seq)
		sum := chunkID(sha256.Sum256(want[seq]))
		if seq == 1 {
			sum[0] ^= 1 // a wrong payload hash
		}
		if err := os.WriteFile(path, encodeRecipeV1(r.total, sum, r.lens, r.ids), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	chain, missing, err := fs.Get(ctx, "p")
	if err != nil || len(chain) != 1 || !bytes.Equal(chain[0].Data, want[0]) || !slices.Equal(missing, []int{1}) {
		t.Fatalf("Get: err %v, %d stored, missing %v", err, len(chain), missing)
	}
	rep, err := fs.Scrub(ctx, "p", false)
	if err != nil || !slices.Equal(rep.Corrupt, []int{1}) {
		t.Fatalf("Scrub: %v err %v", rep, err)
	}

	// A reopened store's rebuild counts the AICRCPS1 recipes too.
	re, err := NewFSStore(fs.root, Target{Name: "dedup"})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.EnableDedup(ctx, testDedupConfig()); err != nil {
		t.Fatal(err)
	}
	st, err := re.DedupStats(ctx)
	if err != nil || st.LogicalBytes != int64(len(want[0])+len(want[1])) {
		t.Fatalf("rebuilt stats %+v err %v, want %d logical bytes", st, err, len(want[0])+len(want[1]))
	}
}

// TestRecipeV2ResealedListRejected: every chunk of a reordered list still
// matches its ID, so only the list hash can tell the recipe names another
// payload. A list altered and re-sealed with a fresh CRC is rejected.
func TestRecipeV2ResealedListRejected(t *testing.T) {
	ctx := context.Background()
	fs := newDedupFS(t)
	payload := make([]byte, 8<<10)
	rand.New(rand.NewSource(12)).Read(payload)
	if err := fs.Put(ctx, "p", 0, frame(0, payload)); err != nil {
		t.Fatal(err)
	}
	path, r := recipeOf(t, fs, "p", 0)
	if len(r.ids) < 2 || r.ids[0] == r.ids[1] {
		t.Fatalf("want two distinct chunks, have %d", len(r.ids))
	}
	r.lens[0], r.lens[1] = r.lens[1], r.lens[0]
	r.ids[0], r.ids[1] = r.ids[1], r.ids[0]
	var entries []byte
	for i, id := range r.ids {
		entries = binary.AppendUvarint(entries, uint64(r.lens[i]))
		entries = append(entries, id[:]...)
	}
	swapped := sealRecipe(recipeMagic, uint64(r.total), r.sum[:], uint64(len(r.ids)), entries)
	if _, err := parseRecipe(swapped); err == nil || !strings.Contains(err.Error(), "list hash") {
		t.Fatalf("reordered list: %v, want a list hash mismatch", err)
	}
	if err := os.WriteFile(path, swapped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, missing, err := fs.Get(ctx, "p"); err != nil || !slices.Equal(missing, []int{0}) {
		t.Fatalf("Get: missing %v err %v", missing, err)
	}
}

// TestDedupScrubDamagedChunkBody: a flipped, truncated or missing chunk
// body lists its seq missing in Get and corrupt in Scrub, and leaves the
// other seqs byte-identical, on one worker and on several; a repair
// removes the element and leaves the chain clean.
func TestDedupScrubDamagedChunkBody(t *testing.T) {
	damage := map[string]func(path string) error{
		"flipped": func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			b[len(b)/2] ^= 0x10
			return os.WriteFile(path, b, 0o644)
		},
		"truncated": func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, b[:len(b)-1], 0o644)
		},
		"missing": os.Remove,
	}
	for _, procs := range []int{1, 4} {
		for name, hurt := range damage {
			t.Run(fmt.Sprintf("%s/procs=%d", name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				ctx := context.Background()
				fs := newDedupFS(t)
				rng := rand.New(rand.NewSource(13))
				var want [][]byte
				for seq := 0; seq < 3; seq++ {
					payload := make([]byte, 16<<10)
					rng.Read(payload)
					want = append(want, frame(seq, payload))
					if err := fs.Put(ctx, "p", seq, want[seq]); err != nil {
						t.Fatal(err)
					}
				}
				_, r := recipeOf(t, fs, "p", 1)
				if len(r.ids) < 8 {
					t.Fatalf("seq 1 has %d chunks, want several per worker", len(r.ids))
				}
				if err := hurt(fs.chunkPath(r.ids[len(r.ids)/2])); err != nil {
					t.Fatal(err)
				}
				chain, missing, err := fs.Get(ctx, "p")
				if err != nil || !slices.Equal(missing, []int{1}) || len(chain) != 2 {
					t.Fatalf("Get: err %v, %d stored, missing %v", err, len(chain), missing)
				}
				for _, s := range chain {
					if !bytes.Equal(s.Data, want[s.Seq]) {
						t.Fatalf("seq %d not byte-identical", s.Seq)
					}
				}
				rep, err := fs.Scrub(ctx, "p", true)
				if err != nil || !slices.Equal(rep.Corrupt, []int{1}) || !rep.Repaired {
					t.Fatalf("Scrub: %v err %v", rep, err)
				}
				if rep, err = fs.Scrub(ctx, "p", false); err != nil || !rep.Clean() {
					t.Fatalf("post-repair scrub: %v err %v", rep, err)
				}
			})
		}
	}
}

// TestEachChunkReportsLowestFailure: whatever the worker count, a recipe
// read fetches every chunk once into place when nothing fails, and names
// the lowest damaged chunk when several are missing.
func TestEachChunkReportsLowestFailure(t *testing.T) {
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			ctx := context.Background()
			fs := newDedupFS(t)
			payload := make([]byte, 64<<10)
			rand.New(rand.NewSource(15)).Read(payload)
			want := frame(0, payload)
			if err := fs.Put(ctx, "p", 0, want); err != nil {
				t.Fatal(err)
			}
			_, r := recipeOf(t, fs, "p", 0)
			if len(r.ids) < 16 {
				t.Fatalf("procs %d: %d chunks, want several per worker", procs, len(r.ids))
			}
			got, err := fs.resolveRecipe(r)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("procs %d: undamaged resolve: err %v, byte-identical %v", procs, err, bytes.Equal(got, want))
			}

			lo, hi := len(r.ids)/3, 2*len(r.ids)/3
			if slices.Contains(r.ids[:hi], r.ids[hi]) || slices.Contains(r.ids[:lo], r.ids[lo]) {
				t.Fatalf("procs %d: chunks %d and %d repeat earlier ones", procs, lo, hi)
			}
			for _, i := range []int{hi, lo} {
				if err := os.Remove(fs.chunkPath(r.ids[i])); err != nil {
					t.Fatal(err)
				}
			}
			_, err = fs.resolveRecipe(r)
			if wantID := hex.EncodeToString(r.ids[lo][:4]); err == nil || !strings.Contains(err.Error(), wantID) {
				t.Fatalf("procs %d: got %v, want chunk %s (index %d)", procs, err, wantID, lo)
			}
		}()
	}
}

// The dedup read and write paths on a 4 MiB payload at the default chunk
// geometry, on MemFS: throughput and allocations per payload.
func newBenchDedupStore(b *testing.B) (*FSStore, []byte) {
	st := NewMemStore(Target{Name: "bench"})
	if err := st.EnableDedup(context.Background(), DedupConfig{}); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 4<<20)
	rand.New(rand.NewSource(14)).Read(payload)
	return st, payload
}

func BenchmarkDedupResolve(b *testing.B) {
	st, payload := newBenchDedupStore(b)
	if err := st.Put(context.Background(), "p", 0, payload); err != nil {
		b.Fatal(err)
	}
	recipe, err := st.fsys.ReadFile(ElemPath(st.root, "p", 0))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := st.resolveData(recipe)
		if err != nil || len(out) != len(payload) {
			b.Fatalf("resolve: %d bytes, %v", len(out), err)
		}
	}
}

func BenchmarkDedupPut(b *testing.B) {
	st, payload := newBenchDedupStore(b)
	ctx := context.Background()
	// Seq 0 stores every chunk; the timed Puts are the dedup hits a
	// gang of identical ranks makes.
	if err := st.Put(ctx, "p", 0, payload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		if err := st.Put(ctx, "p", i, payload); err != nil {
			b.Fatal(err)
		}
	}
}
