package ckpt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzDecodeStriped cuts arbitrary frame bytes — sealed with their own
// CRC-32C trailer when seal is set, so the parsers see more than checksum
// failures — into 3 stripe parts at two fuzzed offsets and checks
// DecodeStriped against Decode of the whole: both accept or both reject,
// and an accepted frame has the same header fields, payload and encoding,
// and replays to the same image (after a matching full anchor when it is
// an incremental) whenever its page size is small enough to replay.
func FuzzDecodeStriped(f *testing.F) {
	_, frames := cutTestFrames()
	for _, frame := range frames {
		for _, cut := range []int{1, 9, 11, len(frame) / 2, len(frame) - 3} {
			f.Add(frame, uint16(cut), uint16(len(frame)-1), false)
			f.Add(frame[:len(frame)-4], uint16(cut), uint16(len(frame)/3), true)
		}
	}
	// A CRC-valid frame past maxPageSize: both decoders reject its header.
	huge := (&Checkpoint{Seq: 1, Kind: Full, PageSize: 1 << 40, Payload: []byte{0}}).Encode()
	f.Add(huge, uint16(9), uint16(len(huge)/2), false)
	f.Fuzz(func(t *testing.T, frame []byte, a, b uint16, seal bool) {
		if seal {
			frame = binary.LittleEndian.AppendUint32(bytes.Clone(frame), crc32.Checksum(frame, crcTable))
		}
		if len(frame) < 3 || len(frame) > 4096 {
			return // three stripes need three bytes; the replay stays small
		}
		i, j := int(a)%(len(frame)+1), int(b)%(len(frame)+1)
		if i > j {
			i, j = j, i
		}
		man, parts, _ := cutSet(frame, i, j)
		got, gotErr := DecodeStriped(man, parts)
		want, wantErr := Decode(frame)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("cuts %d, %d: DecodeStriped error %v, Decode error %v", i, j, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		r := got.payload()
		payload, _ := r.Next(r.Len())
		if !bytes.Equal(payload, want.Payload) {
			t.Fatalf("cuts %d, %d: payload differs", i, j)
		}
		var base *Checkpoint // nil: no replay, as Restore sizes page buffers by the header's page size
		if want.PageSize > 0 && want.PageSize <= 4096 {
			base = &Checkpoint{Seq: want.Seq - 1, Kind: Full, PageSize: want.PageSize, Payload: rawList(want.PageSize, 0, 1, 2, 3)}
		}
		if diff := sameDecode(base, got, want, frame); diff != "" {
			t.Fatalf("cuts %d, %d: %s", i, j, diff)
		}
	})
}

// rawList is a raw page list of the given pages, page i filled with i+1.
func rawList(pageSize int, idxs ...uint64) []byte {
	out := binary.AppendUvarint(nil, uint64(len(idxs)))
	for _, idx := range idxs {
		out = binary.AppendUvarint(out, idx)
		out = append(out, bytes.Repeat([]byte{byte(idx + 1)}, pageSize)...)
	}
	return out
}
