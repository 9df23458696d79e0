package storage

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"aic/internal/delta"
)

// FuzzParseRecipe feeds arbitrary bytes to the recipe parser (both
// formats). A recipe is trusted metadata on the restore path — every chunk
// reference a corrupted or truncated recipe smuggles through parsing
// becomes a wrong restore — so the parser must never panic, must reject
// anything whose CRC trailer does not match, must size nothing the bytes
// do not pay for, and must only accept inputs whose parsed form survives an
// encode→parse round trip intact.
func FuzzParseRecipe(f *testing.F) {
	id := func(b byte) chunkID {
		var out chunkID
		for i := range out {
			out[i] = b
		}
		return out
	}
	sum := sha256.Sum256([]byte("payload"))

	// Well-formed recipes: multi-chunk, single-chunk, empty payload, and
	// the AICRCPS1 format.
	valid := encodeRecipe([]int{4, 6}, []chunkID{id(1), id(2)})
	f.Add(valid)
	f.Add(encodeRecipe([]int{5}, []chunkID{id(9)}))
	f.Add(encodeRecipe(nil, nil))
	f.Add(encodeRecipeV1(10, sum, []int{4, 6}, []chunkID{id(1), id(2)}))

	// Truncated chunk lists: cut mid-entry and cut before the trailer.
	f.Add(valid[:len(valid)-5])
	f.Add(valid[:len(recipeMagic)+3])

	// CRC trailer flips: last byte and first trailer byte.
	for _, i := range []int{len(valid) - 1, len(valid) - 4} {
		flipped := append([]byte(nil), valid...)
		flipped[i] ^= 0x01
		f.Add(flipped)
	}

	// Oversized payload lens: a chunk count and per-chunk lengths far past
	// the actual bytes present, with a freshly valid CRC so only the
	// structural checks can reject it.
	hostile := append([]byte(nil), recipeMagicV1[:]...)
	hostile = binary.AppendUvarint(hostile, 1<<40)
	hostile = append(hostile, sum[:]...)
	hostile = binary.AppendUvarint(hostile, 1<<30)
	hostile = binary.AppendUvarint(hostile, 1<<40)
	hostileID := id(3)
	hostile = append(hostile, hostileID[:]...)
	hostile = binary.LittleEndian.AppendUint32(hostile, crc32.Checksum(hostile, crcCastagnoli))
	f.Add(hostile)

	// The recipes the bounds exist for: a chunk past the length ceiling, a
	// length that overflows int, and a chunk count the entry bytes cannot
	// hold.
	for _, r := range hostileRecipes() {
		f.Add(r.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := parseRecipe(data)
		if err != nil {
			return
		}
		// Accepted: the parsed structure must be internally consistent...
		if len(r.lens) != len(r.ids) {
			t.Fatalf("parsed %d lens but %d ids", len(r.lens), len(r.ids))
		}
		total := 0
		for _, l := range r.lens {
			if l < 0 || l > delta.MaxChunkCeiling {
				t.Fatalf("parsed chunk length %d outside [0, %d]", l, delta.MaxChunkCeiling)
			}
			total += l
		}
		if total != r.total {
			t.Fatalf("chunk lengths sum to %d, recipe claims %d", total, r.total)
		}
		if r.total > len(r.ids)*delta.MaxChunkCeiling || len(r.ids) > len(data)/recipeEntryMin {
			t.Fatalf("%d input bytes sized %d chunks and a %d-byte payload", len(data), len(r.ids), r.total)
		}
		// ...and survive an encode→parse round trip field for field.
		re, err := parseRecipe(encodeRecipe(r.lens, r.ids))
		if err != nil {
			t.Fatalf("re-encoded recipe does not parse: %v", err)
		}
		if re.total != r.total || len(re.ids) != len(r.ids) {
			t.Fatalf("round trip changed the recipe: %+v vs %+v", re, r)
		}
		for i := range r.ids {
			if re.ids[i] != r.ids[i] || re.lens[i] != r.lens[i] {
				t.Fatalf("round trip changed entry %d", i)
			}
		}
	})
}
