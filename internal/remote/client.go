package remote

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"aic/internal/metrics"
	"aic/internal/storage"
)

// ErrPeerDark reports that a peer stayed unreachable through the whole retry
// budget. Callers (the replicated store, the facade) degrade to the
// surviving replicas — or to local-only checkpointing — rather than wedging.
var ErrPeerDark = errors.New("remote: peer dark")

// Config tunes a RemoteStore client.
type Config struct {
	// DialTimeout bounds connection establishment (0 selects 5s).
	DialTimeout time.Duration
	// OpTimeout is the per-attempt I/O deadline covering a whole operation
	// attempt (0 selects 30s; negative disables).
	OpTimeout time.Duration
	// Retries is how many times an operation is retried after a transport
	// failure before giving up with ErrPeerDark (0 selects 4; negative
	// disables retries).
	Retries int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// retries: base·2^attempt, capped at max, with ±50% jitter (defaults
	// 50ms and 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Dialer overrides how connections are made (fault injection); nil
	// selects net.Dialer.
	Dialer Dialer
	// JitterSeed pins the backoff-jitter RNG for deterministic retry
	// schedules (the chaos harness's reproducibility hook); 0 seeds from
	// the wall clock as before.
	JitterSeed int64
	// Metrics, when set, instruments the client against this registry with
	// per-peer series (op durations, commit RTT, retries); see DESIGN.md
	// §14.
	Metrics *metrics.Registry
	// rng drives backoff jitter; tests may pin it. Guarded by mu.
	rng *rand.Rand
	// chunkSize is the data-frame payload size (0 selects
	// DefaultChunkSize); tests may pin it.
	chunkSize int
}

func (c Config) withDefaults() Config {
	if c.DialTimeout == 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.OpTimeout == 0 {
		c.OpTimeout = 30 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 4
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.chunkSize <= 0 {
		c.chunkSize = DefaultChunkSize
	}
	if c.Dialer == nil {
		c.Dialer = &net.Dialer{}
	}
	return c
}

// remoteError is an application-level failure the server reported over a
// healthy connection. It is terminal for the operation — retrying would
// yield the same answer.
type remoteError struct {
	Code string
	Msg  string
}

func (e *remoteError) Error() string { return fmt.Sprintf("remote: peer: %s (%s)", e.Msg, e.Code) }

// Unwrap maps wire error codes back onto the store sentinels so callers'
// errors.Is checks work across the network boundary.
func (e *remoteError) Unwrap() error {
	switch e.Code {
	case codeStaleSeq:
		return storage.ErrStaleSeq
	case codeBadProc:
		return storage.ErrBadProcName
	case codeQuota:
		return storage.ErrQuotaExceeded
	}
	return nil
}

// transient reports whether the peer's answer could change on retry.
// Backpressure is the one transient application error: the server's
// staging pool drains as other transfers commit, so backing off and
// retrying is exactly what the protocol asks for.
func (e *remoteError) transient() bool { return e.Code == codeBackpressure }

// RemoteStore is a storage.Store whose backing store lives behind a
// replication server. Operations dial lazily, carry per-attempt deadlines,
// and retry through transient transport failures with exponential backoff;
// a peer that stays dark past the retry budget fails the operation with
// ErrPeerDark.
//
// A RemoteStore serializes its operations (one in flight at a time), which
// matches how the replication fan-out uses one client per peer.
type RemoteStore struct {
	addr string
	cfg  Config
	met  *clientMetrics // nil unless Config.Metrics was set

	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	closed bool

	// putBuf is the reused frame-encode scratch for Put's bursts. Guarded
	// by mu (held for the whole operation by do).
	putBuf []byte
}

var (
	_ storage.Store     = (*RemoteStore)(nil)
	_ storage.SeqGetter = (*RemoteStore)(nil)
)

// NewStore creates a client for the peer at addr. No connection is made
// until the first operation.
func NewStore(addr string, cfg Config) *RemoteStore {
	cfg = cfg.withDefaults()
	if cfg.rng == nil {
		seed := cfg.JitterSeed
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		cfg.rng = rand.New(rand.NewSource(seed))
	}
	return &RemoteStore{addr: addr, cfg: cfg, met: newClientMetrics(cfg.Metrics, addr)}
}

// Target implements storage.Store. A peer is not a modelled level: its
// target is the zero value.
func (r *RemoteStore) Target() storage.Target { return storage.Target{} }

// Close drops the connection. Further operations fail.
func (r *RemoteStore) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	return r.dropLocked()
}

func (r *RemoteStore) dropLocked() error {
	var err error
	if r.conn != nil {
		err = r.conn.Close()
		r.conn, r.br = nil, nil
	}
	return err
}

// ensureConnLocked dials and runs the hello exchange if no connection is
// up, installing the connection on success. The hello names exactly
// protocolVersion; a peer that speaks another version refuses it, and the
// refusal is terminal.
func (r *RemoteStore) ensureConnLocked(ctx context.Context) error {
	if r.closed {
		return fmt.Errorf("remote: store for %s is closed", r.addr)
	}
	if r.conn != nil {
		return nil
	}
	dctx, cancel := context.WithTimeout(ctx, r.cfg.DialTimeout)
	defer cancel()
	conn, err := r.cfg.Dialer.DialContext(dctx, "tcp", r.addr)
	if err != nil {
		return err
	}
	br := bufio.NewReader(conn)
	conn.SetDeadline(time.Now().Add(r.cfg.DialTimeout))
	if err := writeJSON(conn, kindHello, helloMsg{Version: protocolVersion}); err != nil {
		conn.Close()
		return err
	}
	if _, err := expect(br, kindHelloOK); err != nil {
		conn.Close()
		return err
	}
	conn.SetDeadline(time.Time{})
	r.conn, r.br = conn, br
	return nil
}

// address decomposes a flat store key into the address the server
// validates part by part.
func address(name string) procMsg {
	tenant, proc, stripe := storage.ParseKey(name)
	if tenant == storage.DefaultTenant {
		tenant = "" // omitted on the wire; the server defaults it
	}
	return procMsg{Proc: proc, Tenant: tenant, Stripe: stripe}
}

func asRemoteErr(payload []byte) error {
	var m errMsg
	if err := decodeJSON(payload, &m); err != nil {
		return err
	}
	return &remoteError{Code: m.Code, Msg: m.Msg}
}

// do runs op with the retry/backoff/deadline envelope. op gets a live
// connection with its deadline already set; any failure drops the
// connection (see below), transport failures retry, application errors
// return immediately.
//
//aiclint:ignore lockio r.mu is the connection-ownership lock; the single conn is only usable while held
func (r *RemoteStore) do(ctx context.Context, op func(conn net.Conn, br *bufio.Reader) error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt <= r.cfg.Retries; attempt++ {
		if attempt > 0 {
			if r.met != nil {
				r.met.retries.Inc()
			}
			if err := r.sleepLocked(ctx, r.backoff(attempt-1)); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := r.ensureConnLocked(ctx); err != nil {
			var re *remoteError
			if errors.As(err, &re) && !re.transient() {
				return err // the peer answered; its answer won't change
			}
			lastErr = err
			continue
		}
		deadline := time.Time{}
		if r.cfg.OpTimeout > 0 {
			deadline = time.Now().Add(r.cfg.OpTimeout)
		}
		if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
			deadline = d
		}
		r.conn.SetDeadline(deadline)
		err := op(r.conn, r.br)
		if err == nil {
			r.conn.SetDeadline(time.Time{})
			return nil
		}
		// Every error drops the connection, application-level ones included.
		// Every request gets one reply, but a failed op may have left part
		// of it unread (a deadline mid-reply, a frame of the wrong kind),
		// which the next operation would misread as its own. Reconnecting is
		// cheap; a desynchronized session is not. The error itself stays
		// terminal — the peer's answer will not change on retry — except
		// for backpressure, which by contract drains as the server's
		// staging pool empties.
		r.dropLocked()
		var re *remoteError
		if errors.As(err, &re) && !re.transient() {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("%w: %s after %d attempts: %v", ErrPeerDark, r.addr, r.cfg.Retries+1, lastErr)
}

// backoff returns the jittered exponential delay for a retry.
func (r *RemoteStore) backoff(attempt int) time.Duration {
	d := r.cfg.BackoffBase << uint(attempt)
	if d > r.cfg.BackoffMax || d <= 0 {
		d = r.cfg.BackoffMax
	}
	// ±50% jitter decorrelates peers retrying after a shared failure.
	jitter := 0.5 + r.cfg.rng.Float64()
	return time.Duration(float64(d) * jitter)
}

// sleepLocked waits without holding up ctx cancellation.
func (r *RemoteStore) sleepLocked(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// expect reads one frame and requires the given kind, decoding error frames
// into remoteError.
func expect(br *bufio.Reader, want byte) ([]byte, error) {
	kind, payload, err := readFrame(br, DefaultMaxFrame)
	if err != nil {
		return nil, err
	}
	if kind == kindErr {
		return nil, asRemoteErr(payload)
	}
	if kind != want {
		return nil, fmt.Errorf("remote: unexpected frame 0x%02x (want 0x%02x)", kind, want)
	}
	return payload, nil
}

// Put implements storage.Store: a resumable transfer. Each retry
// re-negotiates the offset, so bytes staged before a cut are not resent.
//
//aiclint:ignore durableflow the wire client cannot fsync the server's disk; durability lives behind the kindPutDone reply, which durableflow checks where the server emits it
func (r *RemoteStore) Put(ctx context.Context, proc string, seq int, data []byte) error {
	crc := objectCRC(data)
	return r.timedDo(ctx, "put", func(conn net.Conn, br *bufio.Reader) error {
		if err := writeJSON(conn, kindPutBegin, putBeginMsg{
			procMsg: address(proc),
			Seq:     seq,
			Size:    int64(len(data)),
			CRC:     crc,
			Migrate: storage.IsMigration(ctx),
		}); err != nil {
			return err
		}
		payload, err := expect(br, kindPutOffset)
		if err != nil {
			return err
		}
		var off putOffsetMsg
		if err := decodeJSON(payload, &off); err != nil {
			return err
		}
		if off.Offset < 0 || off.Offset > int64(len(data)) {
			return fmt.Errorf("remote: peer offers offset %d of %d", off.Offset, len(data))
		}
		// Stream the rest in bursts of putBurst frames, one Write each, and
		// read nothing until the commit: the server answers no data frame,
		// so TCP's window is the transfer's only flow control.
		for pos := off.Offset; pos < int64(len(data)); {
			burst := r.putBuf[:0]
			for n := 0; n < putBurst && pos < int64(len(data)); n++ {
				end := min(pos+int64(r.cfg.chunkSize), int64(len(data)))
				burst = appendDataFrame(burst, pos, data[pos:end])
				pos = end
			}
			r.putBuf = burst
			if _, err := conn.Write(burst); err != nil {
				return err
			}
		}
		var tc time.Time
		if r.met != nil {
			tc = time.Now()
		}
		if err := writeFrame(conn, kindPutCommit, nil); err != nil {
			return err
		}
		if _, err := expect(br, kindPutDone); err != nil {
			return err
		}
		if r.met != nil {
			r.met.commitRTT.Observe(time.Since(tc).Seconds())
		}
		return nil
	})
}

// timedDo is do plus the per-op duration observation (including retries
// and backoff — the caller-visible latency).
func (r *RemoteStore) timedDo(ctx context.Context, op string, fn func(conn net.Conn, br *bufio.Reader) error) error {
	var t0 time.Time
	if r.met != nil {
		t0 = time.Now()
	}
	err := r.do(ctx, fn)
	if r.met != nil {
		r.met.observeOp(r.addr, op, time.Since(t0).Seconds())
	}
	return err
}

// Get implements storage.Store. The reply is outside input, vetted by
// checkReply: elements out of order or sent twice, a seq both sent and
// missing, or a partial read's Only echo fail the call as this peer's — no
// retry would make it honest.
func (r *RemoteStore) Get(ctx context.Context, proc string) ([]storage.Stored, []int, error) {
	hdr, chain, err := r.get(ctx, "get", proc, false, nil)
	if err != nil {
		return nil, nil, err
	}
	return chain, hdr.Missing, nil
}

// GetSeqs implements storage.SeqGetter: one round trip carrying the listing
// and only the wanted bodies. The reply is vetted like Get's, and also
// fails without the Only echo, with an element or missing seq that was not
// wanted or not listed, or with a listing out of order.
func (r *RemoteStore) GetSeqs(ctx context.Context, proc string, want []int) ([]int, []storage.Stored, []int, error) {
	hdr, chain, err := r.get(ctx, "get_seqs", proc, true, want)
	if err != nil {
		return nil, nil, nil, err
	}
	return hdr.Listed, chain, hdr.Missing, nil
}

// get runs one kindGet exchange, the reply header and its elements, and
// vets the reply against the request (checkReply). A ctx marked
// storage.WithSealedRead asks for a sealed read, whose element frames'
// CRC skips the bodies the caller checks end to end; an element of the
// other kind fails the call.
func (r *RemoteStore) get(ctx context.Context, op, proc string, only bool, want []int) (hdr chainMsg, chain []storage.Stored, err error) {
	sealed := storage.IsSealedRead(ctx)
	err = r.timedDo(ctx, op, func(conn net.Conn, br *bufio.Reader) error {
		hdr, chain = chainMsg{}, nil
		if err := writeJSON(conn, kindGet, getMsg{procMsg: address(proc), Only: only, Want: want, Sealed: sealed}); err != nil {
			return err
		}
		payload, err := expect(br, kindChain)
		if err != nil {
			return err
		}
		if err := decodeJSON(payload, &hdr); err != nil {
			return err
		}
		for i := 0; i < hdr.Count; i++ {
			payload, err := expect(br, elemKind(sealed))
			if err != nil {
				return err
			}
			seq, data, err := splitElemFrame(payload)
			if err != nil {
				return err
			}
			chain = append(chain, storage.Stored{Seq: seq, Data: data})
		}
		return nil
	})
	if err == nil {
		if err = checkReply(hdr, chain, only, want); err != nil {
			err = fmt.Errorf("remote: peer %s: %s of %s: %w", r.addr, op, proc, err)
		}
	}
	return hdr, chain, err
}

// checkReply vets a Get reply against its request. Either read shape names
// every element and every missing seq once, each list in sequence order —
// a missing seq is one whose body the peer could not read, so it is never
// also sent — and echoes Only exactly when the request was a partial read.
// A partial read's answer also lists the chain strictly ascending, and
// names only wanted, listed seqs.
func checkReply(hdr chainMsg, chain []storage.Stored, only bool, want []int) error {
	switch {
	case only && !hdr.Only:
		return errors.New("reply is not a partial read")
	case !only && hdr.Only:
		return errors.New("whole-chain reply echoes a partial read")
	}
	var inListing, wanted map[int]bool
	if only {
		listed := hdr.Listed
		for i := 1; i < len(listed); i++ {
			if listed[i] <= listed[i-1] {
				return fmt.Errorf("listing not strictly ascending at seq %d", listed[i])
			}
		}
		inListing = make(map[int]bool, len(listed))
		for _, seq := range listed {
			inListing[seq] = true
		}
		wanted = make(map[int]bool, len(want))
		for _, seq := range want {
			wanted[seq] = true
		}
	}
	named := make(map[int]bool, len(chain)+len(hdr.Missing))
	vet := func(what string, seqs []int) error {
		for i, seq := range seqs {
			switch {
			case only && !wanted[seq]:
				return fmt.Errorf("seq %d %s but not requested", seq, what)
			case only && !inListing[seq]:
				return fmt.Errorf("seq %d %s but not listed", seq, what)
			case i > 0 && seq <= seqs[i-1]:
				return fmt.Errorf("seq %d %s out of order or twice", seq, what)
			case named[seq]:
				return fmt.Errorf("seq %d both sent and missing", seq)
			}
			named[seq] = true
		}
		return nil
	}
	sent := make([]int, len(chain))
	for i, el := range chain {
		sent[i] = el.Seq
	}
	if err := vet("sent", sent); err != nil {
		return err
	}
	return vet("missing", hdr.Missing)
}

// call runs one request that gets one reply: msg goes out as a frame of
// kind (an empty one when msg is nil), and the reply must be a want frame,
// whose JSON payload decodes into a fresh R on every attempt. A kindOK
// reply carries no payload.
func call[R any](ctx context.Context, r *RemoteStore, op string, kind byte, msg any, want byte) (reply R, err error) {
	err = r.timedDo(ctx, op, func(conn net.Conn, br *bufio.Reader) error {
		reply = *new(R)
		var err error
		if msg == nil {
			err = writeFrame(conn, kind, nil)
		} else {
			err = writeJSON(conn, kind, msg)
		}
		if err != nil {
			return err
		}
		payload, err := expect(br, want)
		if err != nil || want == kindOK {
			return err
		}
		return decodeJSON(payload, &reply)
	})
	return reply, err
}

// List implements storage.Store.
func (r *RemoteStore) List(ctx context.Context) ([]string, error) {
	m, err := call[procsMsg](ctx, r, "list", kindList, nil, kindProcs)
	if err != nil {
		return nil, err
	}
	return m.Procs, nil
}

// Delete implements storage.Store.
func (r *RemoteStore) Delete(ctx context.Context, proc string) error {
	_, err := call[struct{}](ctx, r, "delete", kindDelete, address(proc), kindOK)
	return err
}

// Truncate implements storage.Store.
func (r *RemoteStore) Truncate(ctx context.Context, proc string, fullSeq int) error {
	_, err := call[struct{}](ctx, r, "truncate", kindTruncate, truncateMsg{procMsg: address(proc), FullSeq: fullSeq}, kindOK)
	return err
}

// Scrub implements storage.Store: the scrub runs on the peer, against its
// own durable state.
func (r *RemoteStore) Scrub(ctx context.Context, proc string, repair bool) (*storage.ScrubReport, error) {
	rep, err := call[storage.ScrubReport](ctx, r, "scrub", kindScrub, scrubMsg{procMsg: address(proc), Repair: repair}, kindScrubRep)
	if err != nil {
		return nil, err
	}
	return &rep, nil
}
