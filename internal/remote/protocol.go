// Package remote implements the checkpoint replication transport: a small
// length-prefixed frame protocol over TCP that ships encoded checkpoints to
// peer stores. The client side (RemoteStore) satisfies the storage.Store
// contract, so a networked peer slots into the recovery manager, the
// replicated quorum store, and the aic facade exactly like a local
// directory.
//
// Wire format. Every frame is
//
//	uint32 LE  length of (kind + payload)
//	byte       kind
//	[]byte     payload
//	uint32 LE  CRC-32C (Castagnoli) of kind + payload, or of kind + header
//
// — the same polynomial the checkpoint frames themselves use. A frame's CRC
// covers its whole payload unless its kind says the reader checks the body
// end to end (sealedBody): a data frame's chunk is covered by the commit's
// whole-object checksum, and a sealed element is a checkpoint frame that
// ends in its own CRC-32C, which the reader's decode checks. Such a frame's
// CRC covers its kind and its uvarint header field (the offset or seq), so
// a damaged kind, offset or seq is still rejected at the frame, and the
// body is checksummed once, end to end, instead of once per hop. Control
// payloads are JSON (small, introspectable, no schema compiler); bulk
// checkpoint bytes ride in binary data frames.
//
// Every connection opens with a hello naming exactly protocolVersion; the
// server refuses any other first frame, or any other version, and closes
// the connection. There is one dialect: no downgrade, no capability list.
//
// Every request gets exactly one reply. A Get marked sealed is answered
// with kindElemSealed elements, any other with kindElem: only a reader
// that decodes every body it admits asks for a sealed read.
//
// Transfers are resumable: PutBegin names (proc, seq, size, crc) and the
// server answers with the byte offset it already holds for that exact
// object, so a client reconnecting after a cut resumes mid-object instead
// of restarting. Data frames carry explicit
// offsets and get no reply: TCP's own flow control is the only one, and a
// data frame the transfer cannot take ends the connection, keeping the
// staged prefix for the resume. The commit's reply ends the transfer; a
// commit whose staged bytes fail the declared checksum ends the connection
// instead, and drops the staging, so the retry resends the whole object.
// Commits are idempotent — a retried Put of an object the server's store
// already holds acks at its commit, on the stored bytes, instead of
// failing — which makes client retry loops safe.
package remote

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net"

	"aic/internal/storage"
)

// Frame kinds. Requests run client→server, replies server→client.
const (
	kindHello     byte = 0x01 // JSON helloMsg
	kindPutBegin  byte = 0x02 // JSON putBeginMsg
	kindPutData   byte = 0x03 // uvarint offset ++ raw bytes
	kindPutCommit byte = 0x04 // empty
	kindGet       byte = 0x05 // JSON getMsg
	kindList      byte = 0x06 // empty
	kindDelete    byte = 0x07 // JSON procMsg
	kindTruncate  byte = 0x08 // JSON truncateMsg
	kindScrub     byte = 0x09 // JSON scrubMsg

	kindHelloOK   byte = 0x41 // JSON helloMsg (server's version)
	kindOK        byte = 0x42 // empty generic ack
	kindPutOffset byte = 0x43 // JSON putOffsetMsg
	kindPutDone   byte = 0x45 // empty
	kindChain     byte = 0x46 // JSON chainMsg, followed by Count element frames
	kindElem      byte = 0x47 // uvarint seq ++ raw checkpoint bytes
	kindProcs     byte = 0x48 // JSON procsMsg
	kindScrubRep  byte = 0x49 // JSON storage.ScrubReport
	// kindElemSealed is kindElem answering a sealed Get: the reader checks
	// the checkpoint bytes end to end, so the frame CRC skips them.
	kindElemSealed byte = 0x4a // uvarint seq ++ raw checkpoint bytes
	kindErr        byte = 0x7f // JSON errMsg
)

// protocolVersion is the one dialect the server speaks and the client
// offers; a hello naming any other version is refused. Version 3 made the
// PutBegin object checksum CRC-32 (IEEE); version 4 dropped the per-frame
// put ack, so every request gets one reply; version 5 narrowed the frame
// CRC of a body checked end to end to the frame's kind and header field
// (sealedBody). A peer from before any of them fails at the hello instead
// of mid-transfer.
const protocolVersion = 5

// DefaultMaxFrame bounds a single frame on both sides (and therefore a
// single stored checkpoint element, which Get returns in one kindElem frame).
const DefaultMaxFrame = 64 << 20

// DefaultChunkSize is the data-frame payload size Put slices objects into.
const DefaultChunkSize = 64 << 10

// putBurst is how many data frames Put encodes into one Write.
const putBurst = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// objectCRC is the whole-object checksum PutBegin declares and the commit
// checks. It is CRC-32 (IEEE), not the frames' CRC-32C: every checkpoint
// frame ends in its own CRC-32C, so the CRC-32C of any whole frame is the
// same constant residue, while the IEEE CRC of it is not — resume and
// commit really tell two frames of one size apart.
func objectCRC(data []byte) uint32 { return updateObjectCRC(0, data) }

// updateObjectCRC extends sum, the objectCRC of a prefix, over the bytes p
// that follow it: the server's running checksum of a staged object.
func updateObjectCRC(sum uint32, p []byte) uint32 { return crc32.Update(sum, crc32.IEEETable, p) }

// Error codes carried by kindErr frames.
const (
	codeStaleSeq = "stale-seq"     // storage.ErrStaleSeq on the server
	codeBadProc  = "bad-proc-name" // storage.ErrBadProcName on the server
	codeBadFrame = "bad-request"
	codeInternal = "internal"
	// codeQuota reports storage.ErrQuotaExceeded: the tenant is over its
	// admission limits. Terminal — retrying cannot free quota.
	codeQuota = "quota-exceeded"
	// codeBackpressure reports that the server's staging pool is full.
	// Transient by design: clients retry with backoff, which is the
	// bounded-staging replacement for accepting unlimited partial objects.
	codeBackpressure = "backpressure"
)

type helloMsg struct {
	Version int `json:"v"`
}

// procMsg names one chain: Tenant "" means the default namespace, Stripe
// names a stripe chain of the proc. It is the one address type: every
// request that names a chain embeds it, and encoding/json flattens its
// fields, first, into the request's object. The server composes the flat
// store key (key).
type procMsg struct {
	Proc   string `json:"proc"`
	Tenant string `json:"tenant,omitempty"`
	Stripe string `json:"stripe,omitempty"`
}

// getMsg asks for one chain. Only makes it a partial read: the chain's
// listing plus the bodies of just the Want seqs. Sealed asks for the
// elements as kindElemSealed frames: the reader checks every body end to
// end (storage.WithSealedRead).
type getMsg struct {
	procMsg
	Only   bool  `json:"only,omitempty"`
	Want   []int `json:"want,omitempty"`
	Sealed bool  `json:"sealed,omitempty"`
}

type putBeginMsg struct {
	procMsg
	Seq  int    `json:"seq"`
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc"` // objectCRC of the whole object
	// Migrate marks a rebalance-migration copy of an already-committed
	// element: the server exempts it from tenant quota admission (it was
	// admitted when first written).
	Migrate bool `json:"migrate,omitempty"`
}

type putOffsetMsg struct {
	Offset int64 `json:"offset"` // resume point: bytes the server already staged
}

type truncateMsg struct {
	procMsg
	FullSeq int `json:"fullSeq"`
}

type scrubMsg struct {
	procMsg
	Repair bool `json:"repair"`
}

type chainMsg struct {
	Count   int   `json:"count"`
	Missing []int `json:"missing,omitempty"`
	// Only echoes a partial read's request: Listed is then every seq the
	// chain lists, ascending, and the Count elements are wanted, listed ones.
	Only   bool  `json:"only,omitempty"`
	Listed []int `json:"listed,omitempty"`
}

type procsMsg struct {
	Procs []string `json:"procs"`
}

type errMsg struct {
	Code string `json:"code"`
	Msg  string `json:"msg"`
}

// sealedBody reports whether a frame of kind carries a body its reader
// checks end to end, so that the frame's CRC skips it: a data frame's chunk
// (the commit checks the whole object against its declared objectCRC) and
// a sealed element's checkpoint bytes (the reader decodes the frame, which
// checks its own CRC-32C trailer).
func sealedBody(kind byte) bool { return kind == kindPutData || kind == kindElemSealed }

// crcSpan is the length of the prefix of a frame body (kind ++ payload, at
// least the kind) that the frame's CRC covers: all of it, or for a
// sealedBody kind the kind and the uvarint header field — all of it again
// when that field is malformed, which the payload's own parser rejects.
// The scope follows from the kind byte alone, so a damaged kind fails the
// check like any other covered byte.
func crcSpan(body []byte) int {
	if !sealedBody(body[0]) {
		return len(body)
	}
	if _, n := binary.Uvarint(body[1:]); n > 0 {
		return 1 + n
	}
	return len(body)
}

// appendFrame appends one encoded frame (length prefix, kind, payload, CRC)
// to dst.
func appendFrame(dst []byte, kind byte, payload []byte) []byte {
	n := 1 + len(payload)
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], uint32(n))
	dst = append(dst, word[:]...)
	body := len(dst)
	dst = append(dst, kind)
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(word[:], crc32.Update(0, crcTable, dst[body:body+crcSpan(dst[body:])]))
	return append(dst, word[:]...)
}

// appendDataFrame appends an encoded kindPutData frame (uvarint offset ++
// chunk) to dst without materializing the payload separately. Its CRC
// covers the kind and the offset, not the chunk (sealedBody).
func appendDataFrame(dst []byte, offset int64, chunk []byte) []byte {
	var uv [binary.MaxVarintLen64]byte
	un := binary.PutUvarint(uv[:], uint64(offset))
	n := 1 + un + len(chunk)
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], uint32(n))
	dst = append(dst, word[:]...)
	body := len(dst)
	dst = append(dst, kindPutData)
	dst = append(dst, uv[:un]...)
	binary.LittleEndian.PutUint32(word[:], crc32.Update(0, crcTable, dst[body:]))
	dst = append(dst, chunk...)
	return append(dst, word[:]...)
}

// elemKind is the element frame kind answering a Get: kindElemSealed for
// a sealed read, kindElem for any other.
func elemKind(sealed bool) byte {
	if sealed {
		return kindElemSealed
	}
	return kindElem
}

// writeChain sends a Get reply — the kindChain header frame, then one
// element frame of kind elem (uvarint seq ++ checkpoint bytes) per element
// — in one vectored write. Only the framing is built, in one scratch
// buffer; each element's bytes go out as they are, never copied, and are
// read by the frame CRC only for a kindElem reply. The bytes are exactly
// appendFrame's for the header and for each elemFrame.
func writeChain(w io.Writer, hdr []byte, chain []storage.Stored, elem byte) error {
	const elemFraming = 4 + 1 + binary.MaxVarintLen64 + 4
	scratch := appendFrame(make([]byte, 0, 4+1+len(hdr)+4+len(chain)*elemFraming), kindChain, hdr)
	bufs := make(net.Buffers, 0, 2*len(chain)+1)
	from := 0 // scratch[from:] is framing not yet queued
	for _, el := range chain {
		head := len(scratch)
		scratch = binary.LittleEndian.AppendUint32(scratch, 0)
		scratch = append(scratch, elem)
		scratch = binary.AppendUvarint(scratch, uint64(el.Seq))
		binary.LittleEndian.PutUint32(scratch[head:], uint32(len(scratch)-head-4+len(el.Data)))
		sum := crc32.Checksum(scratch[head+4:], crcTable)
		if !sealedBody(elem) {
			sum = crc32.Update(sum, crcTable, el.Data)
		}
		bufs = append(bufs, scratch[from:], el.Data)
		from = len(scratch)
		scratch = binary.LittleEndian.AppendUint32(scratch, sum)
	}
	bufs = append(bufs, scratch[from:])
	_, err := bufs.WriteTo(w)
	return err
}

// writeFrame sends one frame in a single Write call (fault injection and the
// resume tests rely on frames not being interleaved with other writes).
func writeFrame(w io.Writer, kind byte, payload []byte) error {
	buf := appendFrame(make([]byte, 0, 4+1+len(payload)+4), kind, payload)
	_, err := w.Write(buf)
	return err
}

// writeJSON marshals msg and sends it as a frame of the given kind.
func writeJSON(w io.Writer, kind byte, msg any) error {
	payload, err := json.Marshal(msg)
	if err != nil {
		return fmt.Errorf("remote: marshal frame 0x%02x: %w", kind, err)
	}
	return writeFrame(w, kind, payload)
}

// readFrame reads one frame, verifying its CRC over the span crcSpan
// names. maxFrame guards allocation against a corrupt or hostile length
// prefix.
func readFrame(r io.Reader, maxFrame int) (kind byte, payload []byte, err error) {
	var buf []byte
	return readFrameInto(r, maxFrame, &buf)
}

// maxRetainedFrame bounds the read buffer a connection keeps between
// frames: a data frame of up to four default chunks, and every control
// frame, reuse it; a larger frame is read into a buffer of its own, which
// is dropped after it, so one hostile frame does not stay pinned.
const maxRetainedFrame = 4 * DefaultChunkSize

// readFrameInto is readFrame reading into *buf when the frame fits its
// capacity. A frame that does not is read into a new buffer, which replaces
// *buf when it is at most maxRetainedFrame bytes. The payload aliases the
// buffer: it is valid until the next read into it.
func readFrameInto(r io.Reader, maxFrame int, buf *[]byte) (kind byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("remote: frame length %d outside (0, %d]", n, maxFrame)
	}
	body := *buf
	if cap(body) < n+4 {
		body = make([]byte, n+4)
		if n+4 <= maxRetainedFrame {
			*buf = body
		}
	}
	body = body[:n+4]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	want := binary.LittleEndian.Uint32(body[n:])
	if got := crc32.Checksum(body[:crcSpan(body[:n])], crcTable); got != want {
		return 0, nil, fmt.Errorf("remote: frame CRC mismatch: %08x != %08x", got, want)
	}
	return body[0], body[1:n:n], nil
}

// decodeJSON unmarshals a frame payload.
func decodeJSON(payload []byte, into any) error {
	if err := json.Unmarshal(payload, into); err != nil {
		return fmt.Errorf("remote: bad frame payload: %w", err)
	}
	return nil
}

// dataFrame encodes a kindPutData payload: uvarint offset ++ chunk.
func dataFrame(offset int64, chunk []byte) []byte {
	buf := make([]byte, binary.MaxVarintLen64+len(chunk))
	n := binary.PutUvarint(buf, uint64(offset))
	return append(buf[:n], chunk...)
}

// splitDataFrame decodes a kindPutData payload.
func splitDataFrame(payload []byte) (offset int64, chunk []byte, err error) {
	off, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, nil, fmt.Errorf("remote: malformed data frame")
	}
	return int64(off), payload[n:], nil
}

// elemFrame encodes an element payload (kindElem or kindElemSealed):
// uvarint seq ++ checkpoint bytes.
func elemFrame(seq int, data []byte) []byte {
	buf := make([]byte, binary.MaxVarintLen64+len(data))
	n := binary.PutUvarint(buf, uint64(seq))
	return append(buf[:n], data...)
}

// splitElemFrame decodes an element payload.
func splitElemFrame(payload []byte) (seq int, data []byte, err error) {
	s, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, nil, fmt.Errorf("remote: malformed element frame")
	}
	return int(s), payload[n:], nil
}
