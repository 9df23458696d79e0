package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"aic/internal/delta"
)

// StripeFrame is the decoded form of a Stripe-kind checkpoint element.
// Large checkpoints are split stdchk-style: each of Count slices lives in
// its own stripe chain placed independently on the ring, and a manifest at
// the base key records how to reassemble them. Both travel as ordinary
// checkpoint frames (magic, CRC trailer), so every storage layer — scrub
// included — handles them like any other element.
//
// A StripeFrame comes from DecodeStripe: DecodeStriped accepts no other,
// because it trusts the part's CRC-32C that DecodeStripe derived from the
// checked trailer.
type StripeFrame struct {
	Seq      int
	Manifest bool  // true: reassembly descriptor at the base key
	Index    int   // stripe position (parts only)
	Count    int   // total stripes of the object
	Total    int64 // reassembled object size in bytes
	// Sum is the CRC-32C of the reassembled object. The object is a
	// checkpoint frame, which ends in the CRC-32C of everything before it,
	// so for every well-formed object Sum is one fixed residue: it confirms
	// that the reassembled bytes end in a matching trailer and cannot tell
	// two well-formed frames apart. A stripe set mixed from two frames of
	// one seq and size is caught by that trailer check (DecodeStriped), not
	// by a Sum that differs.
	Sum uint32
	// Part is this stripe's slice (parts only), aliasing the decoded frame.
	// Do not modify it after DecodeStripe: DecodeStriped checks the object
	// by the CRC-32C DecodeStripe derived from it, not by reading it again.
	Part []byte

	crc     uint32 // CRC-32C of Part, derived from the checked trailer
	decoded bool   // set by DecodeStripe
}

// maxStripes bounds a stripe set's Count. A restore names one stripe key
// per index before it reads any part, so a manifest's Count must not size
// anything unchecked.
const maxStripes = 1024

// CheckStripeCount reports whether an object may be split into count
// stripes: at least 2 (one stripe is just the object) and at most
// maxStripes, the most DecodeStripe accepts.
func CheckStripeCount(count int) error {
	if count < 2 || count > maxStripes {
		return fmt.Errorf("ckpt: stripe count %d (want 2 to %d)", count, maxStripes)
	}
	return nil
}

// frameResidue is the CRC-32C of every well-formed frame: a body followed by
// its own CRC-32C, little-endian. For a fixed body, the CRC-32C of body ‖ t
// equals it exactly when t is the body's CRC-32C.
var frameResidue = crc32.Checksum(make([]byte, 4), crcTable) // the empty body's frame

// stripe header records, stored in the frame's CPUState field.
const (
	stripeRecManifest = 0
	stripeRecPart     = 1
)

// EncodeStripeManifest builds the base-key manifest frame for a striped
// object: count stripes reassembling to total bytes with CRC-32C sum.
func EncodeStripeManifest(seq, count int, total int64, sum uint32) []byte {
	return stripeHeader(seq, stripeRecManifest, 0, count, total, sum).Encode()
}

// EncodeStripePart wraps stripe index of count (slice part of an object of
// total bytes, whole-object CRC sum) as a storable frame.
//
//aiclint:ignore testonly test seam: builds the crafted stripe parts the DecodeStripe bound and cut tests feed in
func EncodeStripePart(seq, index, count int, total int64, sum uint32, part []byte) []byte {
	c := stripeHeader(seq, stripeRecPart, index, count, total, sum)
	c.Payload = part
	return c.Encode()
}

// stripeHeader is a stripe frame's checkpoint without its payload: the
// stripe header record rides in the CPUState field.
func stripeHeader(seq, rec, index, count int, total int64, sum uint32) *Checkpoint {
	hdr := make([]byte, 0, 24)
	hdr = append(hdr, byte(rec))
	hdr = binary.AppendUvarint(hdr, uint64(index))
	hdr = binary.AppendUvarint(hdr, uint64(count))
	hdr = binary.AppendUvarint(hdr, uint64(total))
	hdr = binary.AppendUvarint(hdr, uint64(sum))
	return &Checkpoint{Seq: seq, Kind: Stripe, CPUState: hdr}
}

// IsStripe cheaply reports whether an encoded frame is Stripe-kind, without
// a full decode (one magic comparison and a kind byte).
func IsStripe(data []byte) bool {
	return len(data) > len(magic) && string(data[:8]) == string(magic[:]) && Kind(data[8]) == Stripe
}

// DecodeStripe parses a Stripe-kind frame (CRC-verified like any element).
// From the checked trailer it derives the part's own CRC-32C, with no pass
// over the part: the trailer is the CRC of header ‖ part, so the part's is
// the trailer XOR the header's CRC shifted over len(part) bytes. A Count
// above the object's Total, or above maxStripes, is rejected: SplitStripes
// writes neither.
func DecodeStripe(data []byte) (*StripeFrame, error) {
	c, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if c.Kind != Stripe {
		return nil, fmt.Errorf("%w: kind %v is not a stripe", ErrBadCheckpoint, c.Kind)
	}
	p := c.CPUState
	if len(p) < 1 {
		return nil, fmt.Errorf("%w: empty stripe header", ErrBadCheckpoint)
	}
	rec := p[0]
	p = p[1:]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated stripe header", ErrBadCheckpoint)
		}
		p = p[n:]
		return v, nil
	}
	index, err := next()
	if err != nil {
		return nil, err
	}
	count, err := next()
	if err != nil {
		return nil, err
	}
	total, err := next()
	if err != nil {
		return nil, err
	}
	sum, err := next()
	if err != nil {
		return nil, err
	}
	if count == 0 || count > maxStripes || count > total || total > math.MaxInt64 {
		return nil, fmt.Errorf("%w: stripe header (count %d, total %d)", ErrBadCheckpoint, count, total)
	}
	header := data[:len(data)-4-len(c.Payload)]
	trailer := binary.LittleEndian.Uint32(data[len(data)-4:])
	sf := &StripeFrame{
		Seq:   c.Seq,
		Index: int(index), Count: int(count),
		Total: int64(total), Sum: uint32(sum),
		Part:    c.Payload,
		crc:     trailer ^ crc32Combine(crc32.Checksum(header, crcTable), 0, len(c.Payload)),
		decoded: true,
	}
	switch rec {
	case stripeRecManifest:
		sf.Manifest = true
		if len(sf.Part) != 0 {
			return nil, fmt.Errorf("%w: stripe manifest carries a payload", ErrBadCheckpoint)
		}
	case stripeRecPart:
		if index >= count {
			return nil, fmt.Errorf("%w: stripe %d of %d", ErrBadCheckpoint, index, count)
		}
	default:
		return nil, fmt.Errorf("%w: unknown stripe record %d", ErrBadCheckpoint, rec)
	}
	return sf, nil
}

// ReassembleStripes concatenates the parts of one seq's stripe set (given
// in any order) and verifies the result against the manifest's Sum, with a
// CRC pass over the joined object. Every part must be present exactly once
// and agree on the geometry. The object need not be a checkpoint frame;
// DecodeStriped is the restore path's entry.
//
//aiclint:ignore testonly only bench calls it (its stripe_reassemble_ms); ROADMAP 1(f) moves bench onto the product path and deletes it
func ReassembleStripes(man *StripeFrame, parts []*StripeFrame) ([]byte, error) {
	_, pieces, err := orderStripes(man, parts)
	if err != nil {
		return nil, err
	}
	out := bytes.Join(pieces, nil) // sized once, and not zeroed before the copy
	if got := crc32.Checksum(out, crcTable); got != man.Sum {
		return nil, fmt.Errorf("%w: reassembled object CRC %08x, manifest says %08x", ErrChecksum, got, man.Sum)
	}
	return out, nil
}

// DecodeStriped decodes one seq's stripe set as a checkpoint frame without
// joining it. Its CRC check reads no byte: the part CRCs DecodeStripe
// derived fold (crc32Combine) into the object's CRC-32C, which must equal
// both the manifest's Sum and the frame residue — the second holds exactly
// when the frame's trailer matches its body. The header is parsed across
// the parts, and the Checkpoint's payload stays in them (its Payload is
// nil): Restore replays it where it lies, and Encode joins the parts. The
// parts must come from DecodeStripe and stay unmodified while the
// Checkpoint is in use.
func DecodeStriped(man *StripeFrame, parts []*StripeFrame) (*Checkpoint, error) {
	ordered, pieces, err := orderStripes(man, parts)
	if err != nil {
		return nil, err
	}
	if man.Total < int64(len(magic)+1+4) {
		return nil, fmt.Errorf("%w: reassembled object of %d bytes is not a frame", ErrBadCheckpoint, man.Total)
	}
	var sum uint32
	for i, p := range ordered {
		if !p.decoded {
			return nil, fmt.Errorf("%w: stripe %d did not come from DecodeStripe", ErrBadCheckpoint, i)
		}
		sum = crc32Combine(sum, p.crc, len(p.Part))
	}
	if sum != man.Sum {
		return nil, fmt.Errorf("%w: reassembled object CRC %08x, manifest says %08x", ErrChecksum, sum, man.Sum)
	}
	if sum != frameResidue {
		return nil, fmt.Errorf("%w: reassembled frame fails its trailer", ErrChecksum)
	}
	r := delta.NewPieces(nil, trimEnd(pieces, 4)...)
	c, err := decodeHeader(&r)
	if err != nil {
		return nil, err
	}
	c.parts, c.spans = pieces, r.Rest()
	return c, nil
}

// trimEnd returns pieces without their last n bytes (n ≤ their length), in a
// new list aliasing them.
func trimEnd(pieces [][]byte, n int) [][]byte {
	out := append([][]byte(nil), pieces...)
	for i := len(out) - 1; n > 0; i-- {
		cut := min(n, len(out[i]))
		out[i] = out[i][:len(out[i])-cut]
		n -= cut
	}
	return out
}

// orderStripes checks the parts of a stripe set against its manifest —
// every part present exactly once, agreeing on the geometry, their sizes
// adding up to Total — and returns them, and their Parts, in index order.
func orderStripes(man *StripeFrame, parts []*StripeFrame) (ordered []*StripeFrame, pieces [][]byte, err error) {
	if !man.Manifest {
		return nil, nil, fmt.Errorf("%w: reassembly needs a manifest frame", ErrBadCheckpoint)
	}
	if len(parts) != man.Count {
		return nil, nil, fmt.Errorf("%w: have %d of %d stripes", ErrBadCheckpoint, len(parts), man.Count)
	}
	ordered = make([]*StripeFrame, man.Count)
	for _, p := range parts {
		if p.Manifest || p.Count != man.Count || p.Seq != man.Seq || p.Total != man.Total || p.Sum != man.Sum {
			return nil, nil, fmt.Errorf("%w: stripe disagrees with manifest", ErrBadCheckpoint)
		}
		if p.Index < 0 || p.Index >= man.Count || ordered[p.Index] != nil {
			return nil, nil, fmt.Errorf("%w: duplicate or out-of-range stripe %d", ErrBadCheckpoint, p.Index)
		}
		ordered[p.Index] = p
	}
	var total int64
	pieces = make([][]byte, man.Count)
	for i, p := range ordered {
		pieces[i] = p.Part
		total += int64(len(p.Part))
	}
	if total != man.Total {
		return nil, nil, fmt.Errorf("%w: reassembled %d bytes, manifest says %d", ErrBadCheckpoint, total, man.Total)
	}
	return ordered, pieces, nil
}

// SplitStripes slices an encoded object into count near-equal parts, each
// wrapped as a storable stripe frame, plus the manifest frame. count must
// be ≥ 2 (one stripe is just the object). Parts are ⌈len/count⌉ bytes, the
// last ones shorter — empty when the object runs out first.
//
// Each part's bytes are read by one CRC pass and copied once, into its
// stripe frame: the object's Sum and every stripe trailer are combined
// from the per-part CRCs.
func SplitStripes(seq int, encoded []byte, count int) (manifest []byte, parts [][]byte, err error) {
	if err := CheckStripeCount(count); err != nil {
		return nil, nil, err
	}
	if len(encoded) < count {
		return nil, nil, fmt.Errorf("ckpt: %d bytes cannot split into %d stripes", len(encoded), count)
	}
	per := (len(encoded) + count - 1) / count
	part := func(i int) []byte { return encoded[min(i*per, len(encoded)):min((i+1)*per, len(encoded))] }
	crcs := make([]uint32, count)
	var sum uint32
	for i := range crcs {
		p := part(i)
		crcs[i] = crc32.Checksum(p, crcTable)
		sum = crc32Combine(sum, crcs[i], len(p))
	}
	total := int64(len(encoded))
	parts = make([][]byte, count)
	for i := range parts {
		p := part(i)
		hdr := stripeHeader(seq, stripeRecPart, i, count, total, sum).appendHeader(nil, len(p))
		trailer := binary.LittleEndian.AppendUint32(nil, crc32Combine(crc32.Checksum(hdr, crcTable), crcs[i], len(p)))
		parts[i] = bytes.Join([][]byte{hdr, p, trailer}, nil) // sized once, and not zeroed before the copy
	}
	return EncodeStripeManifest(seq, count, total, sum), parts, nil
}

// crc32Combine returns the CRC-32C of A‖B from crcA = CRC-32C(A), crcB =
// CRC-32C(B) and lenB = len(B) — zlib's crc32_combine over the Castagnoli
// polynomial. Appending lenB zero bytes to A multiplies its CRC register by
// x^(8·lenB) modulo the polynomial, a product of repeated squares of x^8.
func crc32Combine(crcA, crcB uint32, lenB int) uint32 {
	p := uint32(1) << 31  // x^0, in the reflected bit order of the register
	sq := uint32(1) << 23 // x^8: one zero byte
	for ; lenB > 0; lenB >>= 1 {
		if lenB&1 != 0 {
			p = multModP(sq, p)
		}
		sq = multModP(sq, sq)
	}
	return multModP(p, crcA) ^ crcB
}

// multModP multiplies a and b modulo the Castagnoli polynomial, both in the
// reflected bit order of the CRC register.
func multModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0 && a != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
			a ^= m
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.Castagnoli
		} else {
			b >>= 1
		}
	}
	return p
}
