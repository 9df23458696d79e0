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
	crc     uint32
	buf     []byte // len(buf) == staged bytes so far
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

// serveConn runs the request loop for one connection; ctx is the server's
// lifetime context from Serve. The first frame must be a hello naming
// exactly protocolVersion: anything else is refused and the connection
// closed, so every request the loop serves speaks the one dialect.
//
// Every frame is read into the connection's one read buffer, so each case
// consumes its payload — decodes it, or copies a data frame's chunk into
// the staging buffer — before the next read overwrites it.
func (s *Server) serveConn(ctx context.Context, conn net.Conn) error {
	var rbuf []byte
	if err := s.hello(conn, &rbuf); err != nil {
		return err
	}
	var (
		// curKey names the object of the connection's last PutBegin and
		// cur is its transfer until the commit.
		curKey objKey
		cur    *staging
	)
	for {
		kind, payload, err := s.readFrame(conn, &rbuf)
		if err != nil {
			return err
		}
		switch kind {
		case kindPutBegin:
			var m putBeginMsg
			if err := decodeJSON(payload, &m); err != nil {
				return err
			}
			var reply putOffsetMsg
			name, err := wireKey(m.Proc, m.Tenant, m.Stripe)
			if err == nil {
				curKey, cur, reply, err = s.beginPut(name, m)
			}
			if err != nil {
				cur = nil
				if e := s.sendStoreErr(conn, err); e != nil {
					return e
				}
				continue
			}
			if err := writeJSON(conn, kindPutOffset, reply); err != nil {
				return err
			}

		case kindPutData:
			// A data frame gets no reply. One the transfer cannot take ends
			// the connection, as a malformed frame does; the staged prefix
			// stays for the client's resume.
			if cur == nil {
				return errors.New("remote: data frame outside a transfer")
			}
			offset, chunk, err := splitDataFrame(payload)
			if err != nil {
				return err
			}
			s.mu.Lock()
			if staged := int64(len(cur.buf)); offset != staged || offset+int64(len(chunk)) > cur.size {
				s.mu.Unlock()
				return fmt.Errorf("remote: data frame of %d bytes at offset %d, staged %d of %d", len(chunk), offset, staged, cur.size)
			}
			cur.buf = append(cur.buf, chunk...)
			if s.staging[curKey] == cur {
				s.met.observeStaging(len(chunk)) // an orphaned transfer is not staged
			}
			s.mu.Unlock()

		case kindPutCommit:
			if cur == nil {
				// A client retries a Put from its PutBegin, never with a
				// bare commit: the retry's commit is judged on its bytes.
				if err := s.sendErr(conn, codeBadFrame, "commit outside a transfer"); err != nil {
					return err
				}
				continue
			}
			err := s.commitPut(ctx, curKey, cur)
			cur = nil
			if err != nil {
				if e := s.sendStoreErr(conn, err); e != nil {
					return e
				}
				continue
			}
			if err := writeFrame(conn, kindPutDone, nil); err != nil {
				return err
			}

		case kindGet:
			var m getMsg
			if err := decodeJSON(payload, &m); err != nil {
				return err
			}
			name, err := wireKey(m.Proc, m.Tenant, m.Stripe)
			if err != nil {
				if e := s.sendStoreErr(conn, err); e != nil {
					return e
				}
				continue
			}
			var reply chainMsg
			var chain []storage.Stored
			if m.Only {
				reply.Only = true
				reply.Listed, chain, reply.Missing, err = storage.ReadSeqs(ctx, s.store, name, m.Want)
			} else {
				chain, reply.Missing, err = s.store.Get(ctx, name)
			}
			if err != nil {
				if e := s.sendStoreErr(conn, err); e != nil {
					return e
				}
				continue
			}
			reply.Count = len(chain)
			hdr, err := json.Marshal(reply)
			if err != nil {
				return err
			}
			if err := writeChain(conn, hdr, chain); err != nil {
				return err
			}

		case kindList:
			procs, err := s.store.List(ctx)
			if err != nil {
				if e := s.sendStoreErr(conn, err); e != nil {
					return e
				}
				continue
			}
			if err := writeJSON(conn, kindProcs, procsMsg{Procs: procs}); err != nil {
				return err
			}

		case kindDelete:
			var m procMsg
			if err := decodeJSON(payload, &m); err != nil {
				return err
			}
			name, err := wireKey(m.Proc, m.Tenant, m.Stripe)
			if err != nil {
				if e := s.sendStoreErr(conn, err); e != nil {
					return e
				}
				continue
			}
			delErr := s.store.Delete(ctx, name)
			if delErr == nil {
				// The store no longer holds the chain: a staged transfer of
				// it would otherwise resume into a chain that is gone.
				s.forget(name, func(int) bool { return true })
			}
			if err := s.reply(conn, delErr); err != nil {
				return err
			}

		case kindTruncate:
			var m truncateMsg
			if err := decodeJSON(payload, &m); err != nil {
				return err
			}
			name, err := wireKey(m.Proc, m.Tenant, m.Stripe)
			if err != nil {
				if e := s.sendStoreErr(conn, err); e != nil {
					return e
				}
				continue
			}
			truncErr := s.store.Truncate(ctx, name, m.FullSeq)
			if truncErr == nil {
				s.forget(name, func(seq int) bool { return seq < m.FullSeq })
			}
			if err := s.reply(conn, truncErr); err != nil {
				return err
			}

		case kindScrub:
			var m scrubMsg
			if err := decodeJSON(payload, &m); err != nil {
				return err
			}
			name, err := wireKey(m.Proc, m.Tenant, m.Stripe)
			if err != nil {
				if e := s.sendStoreErr(conn, err); e != nil {
					return e
				}
				continue
			}
			rep, err := s.store.Scrub(ctx, name, m.Repair)
			if err != nil {
				if e := s.sendStoreErr(conn, err); e != nil {
					return e
				}
				continue
			}
			if err := writeJSON(conn, kindScrubRep, rep); err != nil {
				return err
			}

		default:
			return fmt.Errorf("remote: unexpected frame 0x%02x", kind)
		}
	}
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

// wireKey validates a request's addressing fields and composes the flat
// store key. The proc part must pass the user rule — the separators belong
// to the server — and the tenant and stripe parts their own validation, so
// one tenant cannot smuggle a name that addresses another tenant's chain.
func wireKey(proc, tenant, stripe string) (string, error) {
	if err := storage.ValidateUserProcName(proc); err != nil {
		return "", err
	}
	if tenant == "" {
		tenant = storage.DefaultTenant
	}
	if err := storage.ValidateTenantName(tenant); err != nil {
		return "", err
	}
	if stripe != "" {
		if _, _, ok := storage.ParseStripeLabel(stripe); !ok {
			return "", fmt.Errorf("remote: %w: malformed stripe label %q", storage.ErrBadProcName, stripe)
		}
	}
	return storage.ComposeKey(tenant, proc, stripe), nil
}

// errBackpressure reports a full staging pool; the client retries with
// backoff rather than the server buffering without bound.
var errBackpressure = errors.New("remote: staging pool full")

// beginPut opens (or resumes) a transfer for the composed store key name,
// answering with the offset the client should send from. A staged transfer
// resumes only when its size and objectCRC match the new declaration.
// Whether the store already holds the object is judged on its bytes at
// commit, never here.
func (s *Server) beginPut(name string, m putBeginMsg) (key objKey, st *staging, reply putOffsetMsg, err error) {
	if m.Seq < 0 || m.Size < 0 {
		return key, nil, reply, fmt.Errorf("remote: malformed put-begin %+v", m)
	}
	if m.Size > maxObject {
		return key, nil, reply, fmt.Errorf("remote: object of %d bytes exceeds limit %d", m.Size, maxObject)
	}
	if m.Size > s.cfg.MaxStagingBytes {
		// Terminal, not backpressure: an object larger than the whole pool
		// could never stage no matter how long the client waits.
		return key, nil, reply, fmt.Errorf("remote: object of %d bytes exceeds staging pool %d", m.Size, s.cfg.MaxStagingBytes)
	}
	key = objKey{proc: name, seq: m.Seq}
	s.mu.Lock()
	defer s.mu.Unlock()
	st = s.staging[key]
	if st == nil || st.size != m.Size || st.crc != m.CRC {
		prior := int64(0)
		if st != nil {
			prior = st.size
		}
		// Admit against the bounded staging pool before allocating: the
		// entry this transfer replaces returns its own reservation first.
		if s.stagingDeclared-prior+m.Size > s.cfg.MaxStagingBytes {
			return key, nil, reply, fmt.Errorf("%w: %d of %d bytes reserved", errBackpressure, s.stagingDeclared, s.cfg.MaxStagingBytes)
		}
		if st != nil {
			s.unstageLocked(key, st)
		}
		s.stagingDeclared += m.Size
		st = &staging{size: m.Size, crc: m.CRC, buf: make([]byte, 0, m.Size)}
		s.staging[key] = st
	}
	st.migrate = st.migrate || m.Migrate
	return key, st, putOffsetMsg{Offset: int64(len(st.buf))}, nil
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

// commitPut verifies the staged object and makes it durable.
func (s *Server) commitPut(ctx context.Context, key objKey, st *staging) error {
	s.mu.Lock()
	if int64(len(st.buf)) != st.size {
		s.mu.Unlock()
		return fmt.Errorf("remote: commit of incomplete transfer: %d of %d bytes", len(st.buf), st.size)
	}
	if got := objectCRC(st.buf); got != st.crc {
		s.unstageLocked(key, st) // poisoned; force a fresh transfer
		s.mu.Unlock()
		return fmt.Errorf("remote: staged object CRC mismatch: %08x != %08x", got, st.crc)
	}
	buf := st.buf
	migrate := st.migrate
	s.mu.Unlock()

	if migrate {
		ctx = storage.WithMigration(ctx)
	}
	err := s.store.Put(ctx, key.proc, key.seq, buf)
	if err != nil && storage.HoldsIdentical(ctx, s.store, key.proc, key.seq, buf) {
		// A duplicate of an object the store already holds (a retry after
		// a lost ack, or after this server restarted) commits idempotently,
		// whatever refused it: ErrStaleSeq, or a quota the first copy used.
		err = nil
	}
	s.mu.Lock()
	if err == nil {
		s.unstageLocked(key, st)
		s.met.observeCommit()
	}
	s.mu.Unlock()
	return err
}

// reply sends kindOK or the mapped error frame.
func (s *Server) reply(conn net.Conn, err error) error {
	if err != nil {
		return s.sendStoreErr(conn, err)
	}
	return writeFrame(conn, kindOK, nil)
}

// sendStoreErr reports a store-level failure to the client as an error
// frame. The connection stays usable: an application error is not a
// transport error.
func (s *Server) sendStoreErr(conn net.Conn, err error) error {
	code := codeInternal
	if errors.Is(err, storage.ErrStaleSeq) {
		code = codeStaleSeq
	} else if errors.Is(err, storage.ErrBadProcName) {
		code = codeBadProc
	} else if errors.Is(err, storage.ErrQuotaExceeded) {
		code = codeQuota
	} else if errors.Is(err, errBackpressure) {
		code = codeBackpressure
	}
	return s.sendErr(conn, code, err.Error())
}

func (s *Server) sendErr(conn net.Conn, code, msg string) error {
	return writeJSON(conn, kindErr, errMsg{Code: code, Msg: msg})
}
