package delta

import "encoding/binary"

// Pieces reads a byte sequence held in order across several slices: a
// striped checkpoint's frame lies in its stripe parts and is parsed there,
// without being joined. A contiguous stream is the one-piece case. A span
// that lies inside one piece is returned aliased; only a span that crosses
// a piece boundary is copied.
type Pieces struct {
	cur  []byte   // the current piece's unread bytes; empty only when none remain
	more [][]byte // the pieces after it
	n    int      // unread bytes
}

// NewPieces reads first followed by more. It aliases them and never writes
// to them: the caller must not modify them while the reader, or a span it
// returned, is in use. A contiguous stream is NewPieces(stream), which
// allocates nothing.
func NewPieces(first []byte, more ...[]byte) Pieces {
	r := Pieces{cur: first, more: more, n: len(first)}
	for _, p := range more {
		r.n += len(p)
	}
	r.skip(0)
	return r
}

// Len returns the number of unread bytes.
func (r *Pieces) Len() int { return r.n }

// Rest returns the unread bytes as a new list of pieces aliasing the
// reader's.
func (r *Pieces) Rest() [][]byte {
	if r.n == 0 {
		return nil
	}
	return append([][]byte{r.cur}, r.more...)
}

// skip consumes n ≤ Len bytes, then moves past the pieces left fully read,
// so that cur holds the next byte whenever one remains.
func (r *Pieces) skip(n int) {
	r.n -= n
	for len(r.cur) <= n && len(r.more) > 0 {
		n -= len(r.cur)
		r.cur, r.more = r.more[0], r.more[1:]
	}
	r.cur = r.cur[n:]
}

// Next consumes and returns the next n bytes, capped at their length; ok is
// false, and nothing is consumed, when fewer than n remain.
func (r *Pieces) Next(n int) (span []byte, ok bool) {
	if n < 0 || n > r.n {
		return nil, false
	}
	if n <= len(r.cur) {
		span = r.cur[:n:n]
	} else {
		span = append(make([]byte, 0, n), r.cur...)
		for _, p := range r.more {
			if span = append(span, p[:min(len(p), n-len(span))]...); len(span) == n {
				break
			}
		}
	}
	r.skip(n)
	return span, true
}

// Byte consumes and returns the next byte; ok is false when none remains.
func (r *Pieces) Byte() (b byte, ok bool) {
	if r.n == 0 {
		return 0, false
	}
	b = r.cur[0]
	r.skip(1)
	return b, true
}

// Uvarint consumes and returns the next uvarint; ok is false, and nothing is
// consumed, when the bytes left end inside it or it overflows 64 bits — the
// cases binary.Uvarint reports with n ≤ 0.
func (r *Pieces) Uvarint() (v uint64, ok bool) {
	buf := r.cur
	if len(buf) < binary.MaxVarintLen64 && len(buf) < r.n {
		var joined [binary.MaxVarintLen64]byte
		k := copy(joined[:], buf)
		for _, p := range r.more {
			if k += copy(joined[k:], p); k == len(joined) {
				break
			}
		}
		buf = joined[:k]
	}
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, false
	}
	r.skip(n)
	return v, true
}
