// Package ckpt defines the checkpoint file format and restore logic of the
// AIC reproduction: full checkpoints, incremental checkpoints (dirty pages
// only), and delta-compressed incremental checkpoints (Xdelta3-PA applied to
// hot pages). A process restarts from the last full checkpoint plus all
// subsequent incrementals, exactly as Section II.A describes. A checkpoint
// striped across ring peers is decoded and replayed straight from its
// stripe parts, without being joined (DecodeStriped).
package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"aic/internal/delta"
	"aic/internal/memsim"
	"aic/internal/par"
)

// Kind is the checkpoint flavour.
type Kind uint8

// Checkpoint kinds.
const (
	Full             Kind = 1 // every mapped page, raw
	Incremental      Kind = 2 // dirty pages, raw
	IncrementalDelta Kind = 3 // dirty pages, hot ones delta-compressed
	// Stripe carries an opaque slice of a larger encoded checkpoint (or the
	// manifest describing the split): large objects are striped across ring
	// peers, and DecodeStriped decodes the object from its parts. Stripe
	// frames pass Decode — so store scrubs see intact, CRC-guarded
	// elements, not foreign bytes — but Restore rejects them: a stripe is
	// replayable only as part of its set.
	Stripe Kind = 4
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Full:
		return "full"
	case Incremental:
		return "incremental"
	case IncrementalDelta:
		return "incremental+delta"
	case Stripe:
		return "stripe"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

var magic = [8]byte{'A', 'I', 'C', 'C', 'K', 'P', 'T', '1'}

// ErrBadCheckpoint reports a malformed serialized checkpoint.
var ErrBadCheckpoint = errors.New("ckpt: malformed checkpoint")

// maxPageSize bounds the page size a checkpoint may declare: a replay sizes
// its page buffers by it, so an unchecked header could demand any amount
// of memory. Real page sizes are a few KiB.
const maxPageSize = 1 << 20

// pageSizeValid reports whether a frame of kind k may declare page size ps:
// 1 B to maxPageSize, or 0 for a stripe frame, which carries no pages.
func pageSizeValid(k Kind, ps uint64) bool {
	return ps <= maxPageSize && (ps > 0 || k == Stripe)
}

// Checkpoint is one checkpoint instance. CPUState models the registers,
// process linkage and descriptor blob that the paper notes is a minor,
// uncompressed fraction of the file.
//
// A Checkpoint a Builder (or FullFromImage) returns is already encoded: the
// pages were written once, straight into its frame, Payload aliases that
// frame, and Encode returns it. Such a checkpoint's fields and encoding
// must not be modified.
type Checkpoint struct {
	Seq      int
	Kind     Kind
	PageSize int
	CPUState []byte
	Freed    []uint64 // pages unmapped since the previous checkpoint
	// Payload is the raw page list or page-aligned delta stream; nil for a
	// checkpoint DecodeStriped returns, whose payload stays in its parts.
	Payload []byte

	frame []byte   // the encoding, when written at construction
	parts [][]byte // a striped checkpoint's encoding, in its stripe parts
	spans [][]byte // its payload, in the same parts
}

// payload returns a reader of c's payload: Payload, or a striped
// checkpoint's spans.
func (c *Checkpoint) payload() delta.Pieces {
	return delta.NewPieces(c.Payload, c.spans...)
}

// Size returns the serialized size in bytes, the quantity that drives every
// bandwidth cost in the models (checkpoint size ≈ ds). It is computed from
// the header fields, without encoding.
func (c *Checkpoint) Size() int {
	r := c.payload()
	return c.headerLen(r.Len()) + r.Len() + 4
}

// Encode serializes the checkpoint. The stream ends with a CRC-32C of
// everything before it, so silent corruption in any storage level is
// detected at decode time (and the recovery manager falls through to the
// next level). A checkpoint written at construction returns its frame,
// which the caller must not modify; one DecodeStriped returned joins its
// stripe parts — the stored object, byte for byte — into a new slice; any
// other is encoded afresh into a new slice on every call.
func (c *Checkpoint) Encode() []byte {
	if c.frame != nil {
		return c.frame
	}
	if c.parts != nil {
		return bytes.Join(c.parts, nil)
	}
	out := append(c.appendHeader(make([]byte, 0, c.Size()), len(c.Payload)), c.Payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// headerLen is the length of the frame header — everything before the
// payload bytes — for a payload of n bytes.
func (c *Checkpoint) headerLen(n int) int {
	h := len(magic) + 1 + uvarintLen(uint64(c.Seq)) + uvarintLen(uint64(c.PageSize)) +
		uvarintLen(uint64(len(c.CPUState))) + len(c.CPUState) + uvarintLen(uint64(len(c.Freed)))
	for _, idx := range c.Freed {
		h += uvarintLen(idx)
	}
	return h + uvarintLen(uint64(n))
}

// appendHeader appends the frame header for a payload of n bytes to out.
// It is the one header writer: Encode, every frame written at
// construction and every stripe frame use it.
func (c *Checkpoint) appendHeader(out []byte, n int) []byte {
	out = append(out, magic[:]...)
	out = append(out, byte(c.Kind))
	out = binary.AppendUvarint(out, uint64(c.Seq))
	out = binary.AppendUvarint(out, uint64(c.PageSize))
	out = binary.AppendUvarint(out, uint64(len(c.CPUState)))
	out = append(out, c.CPUState...)
	out = binary.AppendUvarint(out, uint64(len(c.Freed)))
	for _, idx := range c.Freed {
		out = binary.AppendUvarint(out, idx)
	}
	return binary.AppendUvarint(out, uint64(n))
}

// seal finishes a frame holding c's header and its n payload bytes, with
// room for the trailer: one CRC pass (checksum, on workers) appends the
// trailer, and the frame becomes c's encoding, with Payload aliasing it.
func (c *Checkpoint) seal(frame []byte, n, workers int) {
	body := len(frame)
	c.frame = binary.LittleEndian.AppendUint32(frame, checksum(frame, workers))
	c.Payload = frame[body-n : body : body]
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crcPiece is the piece size checksum splits a large frame into.
const crcPiece = 1 << 20

// checksum returns the CRC-32C of data. Data of two pieces or more is
// checksummed piece by piece over par.For on workers (par.Workers: ≤ 0
// selects GOMAXPROCS), and the piece CRCs fold in order (crc32Combine)
// into the same value one pass gives; shorter data is one CRC call.
func checksum(data []byte, workers int) uint32 {
	if len(data) < 2*crcPiece {
		return crc32.Checksum(data, crcTable)
	}
	piece := func(i int) []byte { return data[i*crcPiece : min((i+1)*crcPiece, len(data))] }
	crcs := make([]uint32, (len(data)+crcPiece-1)/crcPiece)
	par.For(workers, len(crcs), func(_, i int) error {
		crcs[i] = crc32.Checksum(piece(i), crcTable)
		return nil
	})
	var sum uint32
	for i, crc := range crcs {
		sum = crc32Combine(sum, crc, len(piece(i)))
	}
	return sum
}

// ErrChecksum reports a checkpoint whose integrity check failed.
var ErrChecksum = errors.New("ckpt: checksum mismatch")

// Decode parses a serialized checkpoint, verifying its CRC trailer with
// one pass over the frame, spread over every core for a large frame
// (checksum).
//
// The returned Checkpoint's Payload aliases data: the caller must not
// modify data while the Checkpoint is in use. CPUState and Freed are
// copies, so a value taken from them (a restore report's CPU state) never
// keeps data alive. Restore copies every page out of the payload, so the
// image it returns shares no bytes with data.
func Decode(data []byte) (*Checkpoint, error) {
	if len(data) < len(magic)+1+4 || string(data[:8]) != string(magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if checksum(body, 0) != binary.LittleEndian.Uint32(trailer) {
		return nil, ErrChecksum
	}
	r := delta.NewPieces(body)
	c, err := decodeHeader(&r)
	if err != nil {
		return nil, err
	}
	c.Payload = body[len(body)-r.Len() : len(body) : len(body)]
	return c, nil
}

// decodeHeader parses a frame body's header — the body is everything before
// the CRC trailer, which the caller has already checked — from r, and
// leaves r at the payload, which it checks fills the rest of the body.
func decodeHeader(r *delta.Pieces) (*Checkpoint, error) {
	head, ok := r.Next(len(magic) + 1)
	if !ok || string(head[:8]) != string(magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	c := &Checkpoint{Kind: Kind(head[8])}
	if c.Kind != Full && c.Kind != Incremental && c.Kind != IncrementalDelta && c.Kind != Stripe {
		return nil, fmt.Errorf("%w: unknown kind %d", ErrBadCheckpoint, head[8])
	}
	next := func() (uint64, error) {
		v, ok := r.Uvarint()
		if !ok {
			return 0, fmt.Errorf("%w: truncated varint", ErrBadCheckpoint)
		}
		return v, nil
	}
	seq, err := next()
	if err != nil {
		return nil, err
	}
	c.Seq = int(seq)
	ps, err := next()
	if err != nil {
		return nil, err
	}
	if !pageSizeValid(c.Kind, ps) {
		return nil, fmt.Errorf("%w: page size %d", ErrBadCheckpoint, ps)
	}
	c.PageSize = int(ps)
	cpuLen, err := next()
	if err != nil {
		return nil, err
	}
	if cpuLen > uint64(r.Len()) {
		return nil, fmt.Errorf("%w: cpu state overflows", ErrBadCheckpoint)
	}
	cpu, _ := r.Next(int(cpuLen))
	c.CPUState = append([]byte(nil), cpu...)
	nFreed, err := next()
	if err != nil {
		return nil, err
	}
	if nFreed > uint64(r.Len()) { // each index is ≥ 1 byte
		return nil, fmt.Errorf("%w: freed list overflows", ErrBadCheckpoint)
	}
	c.Freed = make([]uint64, nFreed)
	for i := range c.Freed {
		v, err := next()
		if err != nil {
			return nil, err
		}
		c.Freed[i] = v
	}
	payLen, err := next()
	if err != nil {
		return nil, err
	}
	if payLen != uint64(r.Len()) {
		return nil, fmt.Errorf("%w: payload length %d, have %d", ErrBadCheckpoint, payLen, r.Len())
	}
	return c, nil
}

// PeekSeq parses just enough of a serialized checkpoint to report its
// embedded sequence number, without verifying the CRC trailer or copying
// the payload. Stores key chains by sequence number, so callers labelling
// a frame can cross-check the label against the frame itself cheaply.
func PeekSeq(data []byte) (int, error) {
	if len(data) < len(magic)+1+4 || string(data[:8]) != string(magic[:]) {
		return 0, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	if k := Kind(data[8]); k != Full && k != Incremental && k != IncrementalDelta && k != Stripe {
		return 0, fmt.Errorf("%w: unknown kind %d", ErrBadCheckpoint, data[8])
	}
	seq, n := binary.Uvarint(data[9:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrBadCheckpoint)
	}
	return int(seq), nil
}

// rawPagesFrame writes c's frame around the raw page list of idxs — the
// count, then each index and its page — copying each page once, from as
// into the frame, and seals it on workers.
func (c *Checkpoint) rawPagesFrame(as *memsim.AddressSpace, idxs []uint64, workers int) {
	n := uvarintLen(uint64(len(idxs)))
	for _, idx := range idxs {
		n += uvarintLen(idx) + len(as.Page(idx))
	}
	out := c.appendHeader(make([]byte, 0, c.headerLen(n)+n+4), n)
	out = binary.AppendUvarint(out, uint64(len(idxs)))
	for _, idx := range idxs {
		out = binary.AppendUvarint(out, idx)
		out = append(out, as.Page(idx)...)
	}
	c.seal(out, n, workers)
}

// rawPages parses a raw page list — the count, then each index and its
// page — for pages of pageSize bytes. It is the one validation rule for raw
// lists: the count must fit in the payload (checked before anything is
// sized by it), indexes must be strictly ascending (both builders emit them
// so; a duplicate or a reordering can only be corruption), and no bytes may
// trail the last page. Each page's Data aliases the payload r reads, unless
// it crosses a piece boundary.
func rawPages(r *delta.Pieces, pageSize int) ([]delta.Page, error) {
	count, ok := r.Uvarint()
	if !ok {
		return nil, fmt.Errorf("%w: missing page count", ErrBadCheckpoint)
	}
	if count > uint64(r.Len()/(pageSize+1)) { // each page is ≥ one index byte and its bytes
		return nil, fmt.Errorf("%w: %d pages cannot fit in %d payload bytes", ErrBadCheckpoint, count, r.Len())
	}
	pages := make([]delta.Page, count)
	for i := range pages {
		idx, ok := r.Uvarint()
		if !ok {
			return nil, fmt.Errorf("%w: bad page index", ErrBadCheckpoint)
		}
		if i > 0 && idx <= pages[i-1].Index {
			return nil, fmt.Errorf("%w: page index %d after %d breaks ascending order", ErrBadCheckpoint, idx, pages[i-1].Index)
		}
		data, ok := r.Next(pageSize)
		if !ok {
			return nil, fmt.Errorf("%w: short page %d", ErrBadCheckpoint, idx)
		}
		pages[i] = delta.Page{Index: idx, Data: data}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, r.Len())
	}
	return pages, nil
}
