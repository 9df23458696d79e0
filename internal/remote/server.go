package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"aic/internal/storage"
)

// maxObject bounds a single staged checkpoint object.
const maxObject = 1 << 30

// ServerConfig tunes a replication server.
type ServerConfig struct {
	// IdleTimeout is the per-frame read deadline; a peer silent for longer
	// is disconnected (its staged partial transfers survive for resume).
	// Zero selects 2 minutes; negative disables the deadline.
	IdleTimeout time.Duration
	// MaxStagingBytes bounds the sum of declared sizes across all partial
	// transfers (0 selects 256 MiB). A PutBegin that would take the pool
	// past the bound is refused with a backpressure error the client
	// retries with backoff — bounded staging instead of letting slow or
	// crashed writers pin unlimited server memory. Objects larger than the
	// bound itself are rejected terminally (they could never stage).
	MaxStagingBytes int64
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.MaxStagingBytes <= 0 {
		c.MaxStagingBytes = 256 << 20
	}
	return c
}

// staging is a partially-received object, keyed by (proc, seq). It survives
// the connection that started it so a reconnecting client can resume at the
// staged offset instead of resending from zero.
type staging struct {
	size    int64
	crc     uint32 // the declared objectCRC
	buf     []byte // len(buf) == staged bytes so far
	sum     uint32 // objectCRC of buf, updated as each chunk is staged
	migrate bool   // rebalance copy: exempt from quota admission at commit
}

// objKey identifies one checkpoint object in the staging map. A typed
// struct key cannot be truncated, collided or misparsed the way the old
// "proc\x00seq" string encoding could: a proc name containing a NUL
// silently split the key, and a malformed key decoded to seq 0.
type objKey struct {
	proc string
	seq  int
}

// Server accepts replication connections and applies their operations to a
// backing store. One Server fronts one storage.Store; the store's own
// locking serializes concurrent connections. The store is the server's only
// commit record: whether it already holds an object is asked of the store
// itself, on the object's bytes (storage.HoldsIdentical), never of a cache
// that a Scrub repair or a compaction run directly on the store could leave
// stale.
type Server struct {
	store storage.Store
	cfg   ServerConfig

	met *serverMetrics // nil until SetMetrics; every observation is nil-safe

	mu      sync.Mutex
	staging map[objKey]*staging // partial transfers awaiting commit
	// stagingDeclared is the sum of declared sizes over s.staging — the
	// reservation MaxStagingBytes bounds. Declared size, not staged bytes:
	// admission happens at PutBegin, before any data arrives.
	stagingDeclared int64

	lnMu   sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer creates a server over the backing store.
func NewServer(store storage.Store, cfg ServerConfig) *Server {
	return &Server{
		store:   store,
		cfg:     cfg.withDefaults(),
		staging: make(map[objKey]*staging),
		conns:   make(map[net.Conn]struct{}),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on ln until Close. It returns nil after Close,
// or the accept error that stopped it. ctx is the server's lifetime
// context: every connection's store operations run under it, so a caller
// cancelling ctx bounds in-flight work during shutdown.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		ln.Close()
		return fmt.Errorf("remote: server closed")
	}
	s.ln = ln
	s.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.lnMu.Lock()
			closed := s.closed
			s.lnMu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.lnMu.Lock()
		if s.closed {
			s.lnMu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.lnMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.lnMu.Lock()
				delete(s.conns, conn)
				s.lnMu.Unlock()
			}()
			if err := s.serveConn(ctx, conn); err != nil && !errors.Is(err, io.EOF) {
				s.logf("remote: conn %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// CloseConns severs every live connection while the server keeps accepting —
// a network blip rather than a peer death. Staged partial transfers survive,
// so reconnecting clients resume at the staged offset; the chaos harness uses
// this to force mid-transfer reconnects at scheduled points.
func (s *Server) CloseConns() {
	s.lnMu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.lnMu.Unlock()
	// Severing happens outside lnMu: Close can block (TCP linger), and the
	// accept loop needs the lock to register new connections meanwhile.
	for _, conn := range conns {
		conn.Close()
	}
}

// Close stops accepting, severs live connections and waits for their
// handlers to exit. Staged partial transfers are lost with the server —
// clients re-negotiate from offset 0 (or the durable store) on reconnect.
func (s *Server) Close() error {
	s.lnMu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.lnMu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// transfer is a connection's open Put: the object of its last PutBegin
// and the staging it fills until the commit. Only PutBegin and PutCommit
// change it.
type transfer struct {
	key objKey
	st  *staging // nil outside a transfer
}

// serveConn runs the request loop for one connection; ctx is the server's
// lifetime context from Serve. The first frame must be a hello naming
// exactly protocolVersion: anything else is refused and the connection
// closed, so every request the loop serves speaks the one dialect.
//
// A refused request — a bad address, a store error, a commit outside a
// transfer — is answered here, with one error frame, and the connection
// stays up; any other failure ends it.
//
// Every frame is read into the connection's one read buffer, so every
// request consumes its payload — decodes it, or copies a data frame's
// chunk into the staging buffer — before the next read overwrites it.
func (s *Server) serveConn(ctx context.Context, conn net.Conn) error {
	var rbuf []byte
	if err := s.hello(conn, &rbuf); err != nil {
		return err
	}
	var put transfer
	for {
		kind, payload, err := s.readFrame(conn, &rbuf)
		if err != nil {
			return err
		}
		refused, err := s.serve(ctx, conn, &put, kind, payload)
		if refused != nil && err == nil {
			err = s.sendErr(conn, errCode(refused), refused.Error())
		}
		if err != nil {
			return err
		}
	}
}

// chainRequest is a request that names one chain: its message embeds
// procMsg, whose key resolves the address.
type chainRequest interface{ key() (string, error) }

// errNoTransfer refuses a PutCommit with no transfer open. A client retries
// a Put from its PutBegin, never with a bare commit: the retry's commit is
// judged on its bytes.
var errNoTransfer = errors.New("commit outside a transfer")

// serve answers one frame of the connection whose open transfer is put. It
// returns the request's refusal, which serveConn answers, or the error that
// ends the connection. The transfer frames come first: durableflow checks
// the kindPutDone write against the calls before it in source order.
func (s *Server) serve(ctx context.Context, conn net.Conn, put *transfer, kind byte, payload []byte) (refused, err error) {
	var req chainRequest
	switch kind {
	case kindPutData:
		// A data frame gets no reply. One the transfer cannot take ends
		// the connection, as a malformed frame does; the staged prefix
		// stays for the client's resume.
		return nil, s.stage(*put, payload)
	case kindPutCommit:
		t := *put
		*put = transfer{}
		if t.st == nil {
			return errNoTransfer, nil
		}
		if refused, err := s.commitPut(ctx, t.key, t.st); refused != nil || err != nil {
			return refused, err
		}
		return nil, writeFrame(conn, kindPutDone, nil)
	case kindList:
		procs, err := s.store.List(ctx)
		if err != nil {
			return err, nil
		}
		return nil, writeJSON(conn, kindProcs, procsMsg{Procs: procs})
	case kindPutBegin:
		*put = transfer{} // a new PutBegin ends the last transfer, refused or not
		req = new(putBeginMsg)
	case kindGet:
		req = new(getMsg)
	case kindDelete:
		req = new(procMsg)
	case kindTruncate:
		req = new(truncateMsg)
	case kindScrub:
		req = new(scrubMsg)
	default:
		return nil, fmt.Errorf("remote: unexpected frame 0x%02x", kind)
	}
	if err := decodeJSON(payload, req); err != nil {
		return nil, err
	}
	name, err := req.key()
	if err != nil {
		return err, nil
	}
	switch m := req.(type) {
	case *putBeginMsg:
		t, reply, err := s.beginPut(name, *m)
		if err != nil {
			return err, nil
		}
		*put = t
		return nil, writeJSON(conn, kindPutOffset, reply)
	case *getMsg:
		var reply chainMsg
		var chain []storage.Stored
		if m.Only {
			reply.Only = true
			reply.Listed, chain, reply.Missing, err = storage.ReadSeqs(ctx, s.store, name, m.Want)
		} else {
			chain, reply.Missing, err = s.store.Get(ctx, name)
		}
		if err != nil {
			return err, nil
		}
		reply.Count = len(chain)
		hdr, err := json.Marshal(reply)
		if err != nil {
			return nil, err
		}
		return nil, writeChain(conn, hdr, chain, elemKind(m.Sealed))
	case *procMsg: // kindDelete
		if err := s.store.Delete(ctx, name); err != nil {
			return err, nil
		}
		// The store no longer holds the chain: a staged transfer of it
		// would otherwise resume into a chain that is gone.
		s.forget(name, func(int) bool { return true })
	case *truncateMsg:
		if err := s.store.Truncate(ctx, name, m.FullSeq); err != nil {
			return err, nil
		}
		s.forget(name, func(seq int) bool { return seq < m.FullSeq })
	case *scrubMsg:
		rep, err := s.store.Scrub(ctx, name, m.Repair)
		if err != nil {
			return err, nil
		}
		return nil, writeJSON(conn, kindScrubRep, rep)
	}
	return nil, writeFrame(conn, kindOK, nil)
}

// stage appends a data frame's chunk to the open transfer, and folds it
// into the transfer's running objectCRC, which the commit checks. A frame
// outside a transfer, or not at its staged offset, or past its declared
// size, is an error that ends the connection.
func (s *Server) stage(put transfer, payload []byte) error {
	if put.st == nil {
		return errors.New("remote: data frame outside a transfer")
	}
	offset, chunk, err := splitDataFrame(payload)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if staged := int64(len(put.st.buf)); offset != staged || offset+int64(len(chunk)) > put.st.size {
		return fmt.Errorf("remote: data frame of %d bytes at offset %d, staged %d of %d", len(chunk), offset, staged, put.st.size)
	}
	put.st.buf = append(put.st.buf, chunk...)
	put.st.sum = updateObjectCRC(put.st.sum, chunk)
	if s.staging[put.key] == put.st {
		s.met.observeStaging(len(chunk)) // an orphaned transfer is not staged
	}
	return nil
}

// hello runs the opening exchange: one kindHello naming exactly
// protocolVersion, answered with kindHelloOK. Any other first frame, or any
// other version, is answered with an error frame and fails the connection.
func (s *Server) hello(conn net.Conn, rbuf *[]byte) error {
	kind, payload, err := s.readFrame(conn, rbuf)
	if err != nil {
		return err
	}
	var h helloMsg
	switch {
	case kind != kindHello:
		s.sendErr(conn, codeBadFrame, "hello required")
		return fmt.Errorf("remote: frame 0x%02x before hello", kind)
	case decodeJSON(payload, &h) != nil || h.Version != protocolVersion:
		s.sendErr(conn, codeBadFrame, fmt.Sprintf("protocol version %d unsupported, want %d", h.Version, protocolVersion))
		return fmt.Errorf("remote: client speaks version %d", h.Version)
	}
	return writeJSON(conn, kindHelloOK, helloMsg{Version: protocolVersion})
}

// readFrame reads the connection's next frame under the idle deadline,
// into the connection's read buffer (readFrameInto).
func (s *Server) readFrame(conn net.Conn, rbuf *[]byte) (byte, []byte, error) {
	if s.cfg.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	}
	return readFrameInto(conn, DefaultMaxFrame, rbuf)
}

// key validates the address and composes the flat store key. The proc
// part must pass the user rule — the separators belong to the server — and
// the tenant and stripe parts their own validation, so one tenant cannot
// smuggle a name that addresses another tenant's chain.
func (m procMsg) key() (string, error) {
	if err := storage.ValidateUserProcName(m.Proc); err != nil {
		return "", err
	}
	tenant := m.Tenant
	if tenant == "" {
		tenant = storage.DefaultTenant
	}
	if err := storage.ValidateTenantName(tenant); err != nil {
		return "", err
	}
	if m.Stripe != "" {
		if _, _, ok := storage.ParseStripeLabel(m.Stripe); !ok {
			return "", fmt.Errorf("remote: %w: malformed stripe label %q", storage.ErrBadProcName, m.Stripe)
		}
	}
	return storage.ComposeKey(tenant, m.Proc, m.Stripe), nil
}

// errBackpressure reports a full staging pool; the client retries with
// backoff rather than the server buffering without bound.
var errBackpressure = errors.New("remote: staging pool full")

// beginPut opens (or resumes) a transfer for the composed store key name,
// answering with the offset the client should send from. A staged transfer
// resumes only when its size and objectCRC match the new declaration.
// Whether the store already holds the object is judged on its bytes at
// commit, never here.
func (s *Server) beginPut(name string, m putBeginMsg) (transfer, putOffsetMsg, error) {
	if m.Seq < 0 || m.Size < 0 {
		return transfer{}, putOffsetMsg{}, fmt.Errorf("remote: malformed put-begin {Proc:%s Tenant:%s Stripe:%s Seq:%d Size:%d CRC:%d Migrate:%t}",
			m.Proc, m.Tenant, m.Stripe, m.Seq, m.Size, m.CRC, m.Migrate)
	}
	if m.Size > maxObject {
		return transfer{}, putOffsetMsg{}, fmt.Errorf("remote: object of %d bytes exceeds limit %d", m.Size, maxObject)
	}
	if m.Size > s.cfg.MaxStagingBytes {
		// Terminal, not backpressure: an object larger than the whole pool
		// could never stage no matter how long the client waits.
		return transfer{}, putOffsetMsg{}, fmt.Errorf("remote: object of %d bytes exceeds staging pool %d", m.Size, s.cfg.MaxStagingBytes)
	}
	key := objKey{proc: name, seq: m.Seq}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.staging[key]
	if st == nil || st.size != m.Size || st.crc != m.CRC {
		prior := int64(0)
		if st != nil {
			prior = st.size
		}
		// Admit against the bounded staging pool before allocating: the
		// entry this transfer replaces returns its own reservation first.
		if s.stagingDeclared-prior+m.Size > s.cfg.MaxStagingBytes {
			return transfer{}, putOffsetMsg{}, fmt.Errorf("%w: %d of %d bytes reserved", errBackpressure, s.stagingDeclared, s.cfg.MaxStagingBytes)
		}
		if st != nil {
			s.unstageLocked(key, st)
		}
		s.stagingDeclared += m.Size
		st = &staging{size: m.Size, crc: m.CRC, buf: make([]byte, 0, m.Size)}
		s.staging[key] = st
	}
	st.migrate = st.migrate || m.Migrate
	return transfer{key, st}, putOffsetMsg{Offset: int64(len(st.buf))}, nil
}

// forget purges the staged transfers for proc whose sequence matches drop:
// Delete and Truncate removed those seqs from the store, so a partial
// transfer of one must start over rather than resume.
func (s *Server) forget(proc string, drop func(seq int) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, st := range s.staging {
		if key.proc == proc && drop(key.seq) {
			s.unstageLocked(key, st)
		}
	}
}

// unstageLocked drops st from the staging pool and returns its reservation,
// if st is still the transfer staged at key: a Delete, a Truncate or another
// connection's PutBegin may have replaced it since a connection opened it,
// and the replacement keeps its own reservation. Caller holds s.mu.
func (s *Server) unstageLocked(key objKey, st *staging) {
	if s.staging[key] != st {
		return
	}
	s.met.observeStaging(-len(st.buf))
	s.stagingDeclared -= st.size
	delete(s.staging, key)
}

// commitPut verifies the staged object and makes it durable. It returns
// the commit's refusal, or the error that ends the connection: staged
// bytes that fail the declared objectCRC were damaged in flight — the data
// frames' CRC does not cover their chunks — so the staging is dropped, and
// the client's retry resends the object from offset 0.
func (s *Server) commitPut(ctx context.Context, key objKey, st *staging) (refused, err error) {
	s.mu.Lock()
	if int64(len(st.buf)) != st.size {
		s.mu.Unlock()
		return fmt.Errorf("remote: commit of incomplete transfer: %d of %d bytes", len(st.buf), st.size), nil
	}
	if st.sum != st.crc {
		s.unstageLocked(key, st)
		s.mu.Unlock()
		return nil, fmt.Errorf("remote: staged object CRC mismatch: %08x != %08x", st.sum, st.crc)
	}
	buf := st.buf
	migrate := st.migrate
	s.mu.Unlock()

	if migrate {
		ctx = storage.WithMigration(ctx)
	}
	refused = s.store.Put(ctx, key.proc, key.seq, buf)
	if refused != nil && storage.HoldsIdentical(ctx, s.store, key.proc, key.seq, buf) {
		// A duplicate of an object the store already holds (a retry after
		// a lost ack, or after this server restarted) commits idempotently,
		// whatever refused it: ErrStaleSeq, or a quota the first copy used.
		refused = nil
	}
	s.mu.Lock()
	if refused == nil {
		s.unstageLocked(key, st)
		s.met.observeCommit()
	}
	s.mu.Unlock()
	return refused, nil
}

// errCode maps a refusal onto its wire error code; the client maps the
// codes back onto the store sentinels.
func errCode(err error) string {
	switch {
	case errors.Is(err, storage.ErrStaleSeq):
		return codeStaleSeq
	case errors.Is(err, storage.ErrBadProcName):
		return codeBadProc
	case errors.Is(err, storage.ErrQuotaExceeded):
		return codeQuota
	case errors.Is(err, errBackpressure):
		return codeBackpressure
	case errors.Is(err, errNoTransfer):
		return codeBadFrame
	}
	return codeInternal
}

func (s *Server) sendErr(conn net.Conn, code, msg string) error {
	return writeJSON(conn, kindErr, errMsg{Code: code, Msg: msg})
}
