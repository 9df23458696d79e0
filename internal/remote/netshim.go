package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Dialer abstracts connection establishment so tests can inject network
// faults between client and server — the transport-level analogue of the
// storage layer's FaultFS. *net.Dialer satisfies it.
type Dialer interface {
	DialContext(ctx context.Context, network, addr string) (net.Conn, error)
}

// ErrInjected marks failures manufactured by the fault dialer.
var ErrInjected = errors.New("remote: injected connection fault")

// Fault describes what happens to one connection.
type Fault struct {
	// FailDial refuses the connection outright.
	FailDial bool
	// CutAfterBytes kills the connection after this many bytes have
	// crossed it in either direction (counted at the client side); 0
	// leaves the connection healthy.
	CutAfterBytes int64
	// WriteDelay stalls every write — a slow peer.
	WriteDelay time.Duration
}

// FaultDialer wraps a Dialer, applying a per-connection fault plan. The
// plan is consulted with a 1-based connection counter, so a test can let
// the first connection die mid-transfer and the reconnect succeed. Beyond
// the static Plan, faults can be scripted at runtime with Enqueue — the
// chaos harness's schedule hook — and queued faults are consumed first,
// one per dial.
type FaultDialer struct {
	// Base makes the real connections (nil selects net.Dialer).
	Base Dialer
	// Plan maps the connection ordinal (1-based) to its fault. Set it before
	// the first dial; runtime faults go through Enqueue.
	Plan func(conn int) Fault

	mu    sync.Mutex
	n     int
	queue []Fault
}

// dials reports how many connections have been attempted.
func (d *FaultDialer) dials() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// Enqueue schedules faults for the next dials: each queued fault is applied
// to exactly one future connection, in order, before the static Plan is
// consulted. Safe to call while connections are being made.
func (d *FaultDialer) Enqueue(faults ...Fault) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.queue = append(d.queue, faults...)
}

// DrainFaults discards every queued fault, returning how many were dropped —
// recovery's way of returning the network to health before a restore, so a
// fault scheduled for an append that never happened cannot leak into the
// recovery path.
func (d *FaultDialer) DrainFaults() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.queue)
	d.queue = nil
	return n
}

// DialContext implements Dialer.
func (d *FaultDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	d.mu.Lock()
	d.n++
	n := d.n
	var f Fault
	var queued bool
	if len(d.queue) > 0 {
		f, queued = d.queue[0], true
		d.queue = d.queue[1:]
	}
	plan := d.Plan
	d.mu.Unlock()
	if !queued && plan != nil {
		f = plan(n)
	}
	if f.FailDial {
		return nil, fmt.Errorf("%w: dial %d refused", ErrInjected, n)
	}
	base := d.Base
	if base == nil {
		base = &net.Dialer{}
	}
	conn, err := base.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	if f.CutAfterBytes > 0 || f.WriteDelay > 0 {
		conn = &faultConn{Conn: conn, fault: f, remaining: f.CutAfterBytes}
	}
	return conn, nil
}

// faultConn enforces a byte budget across reads and writes — counting the
// bytes that actually cross the connection — then closes the underlying
// connection: the peer sees a reset/EOF mid-frame, exactly like a failing
// link. A write straddling the budget is cut short so frames really are
// torn, not atomically dropped.
type faultConn struct {
	net.Conn
	fault Fault

	mu        sync.Mutex
	remaining int64 // meaningful only when fault.CutAfterBytes > 0
	cut       bool
}

func (c *faultConn) Write(p []byte) (int, error) {
	if c.fault.WriteDelay > 0 {
		time.Sleep(c.fault.WriteDelay)
	}
	if c.fault.CutAfterBytes <= 0 {
		return c.Conn.Write(p)
	}
	c.mu.Lock()
	if c.cut {
		c.mu.Unlock()
		return 0, fmt.Errorf("%w: connection already cut", ErrInjected)
	}
	allowed := int64(len(p))
	torn := allowed >= c.remaining
	if torn {
		allowed = c.remaining
		c.cut = true
	}
	c.remaining -= allowed
	c.mu.Unlock()
	if !torn {
		return c.Conn.Write(p)
	}
	n := 0
	if allowed > 0 {
		n, _ = c.Conn.Write(p[:allowed])
	}
	c.Conn.Close()
	return n, fmt.Errorf("%w: connection cut after write budget", ErrInjected)
}

func (c *faultConn) Read(p []byte) (int, error) {
	if c.fault.CutAfterBytes <= 0 {
		return c.Conn.Read(p)
	}
	c.mu.Lock()
	if c.cut {
		c.mu.Unlock()
		return 0, fmt.Errorf("%w: connection already cut", ErrInjected)
	}
	if int64(len(p)) > c.remaining {
		p = p[:c.remaining]
	}
	c.mu.Unlock()
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.remaining -= int64(n)
	dead := c.remaining <= 0 && !c.cut
	if dead {
		c.cut = true
	}
	c.mu.Unlock()
	if dead {
		c.Conn.Close()
		if err == nil && n > 0 {
			return n, nil // deliver the final bytes; the next call errors
		}
		return n, fmt.Errorf("%w: connection cut after read budget", ErrInjected)
	}
	return n, err
}
