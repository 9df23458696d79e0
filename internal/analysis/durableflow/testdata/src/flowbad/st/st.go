// Package st is the flagged durableflow fixture: a mem store acking
// without durability, a Put returning nil before any durable call on one
// of its paths, an ack emitted before the commit sequence, and a
// commit-reply frame written with no committed bytes behind it — each the
// crash-consistency bug the analyzer exists to catch.
package st

import (
	"io"

	"aic/internal/analysis/durableflow/testdata/src/flowbad/shim"
)

// Store is the checkpoint-store contract.
type Store interface {
	Put(p string, b []byte) error
}

// Disk commits correctly: stage, fsync, rename, pin, then ack.
type Disk struct {
	fs   shim.FS
	done chan error
}

// Put performs the full durable sequence before the ack.
func (d *Disk) Put(p string, b []byte) error {
	if err := d.fs.SyncFile(p); err != nil {
		return err
	}
	if err := d.fs.Rename(p+".tmp", p); err != nil {
		return err
	}
	if err := d.fs.SyncDir("."); err != nil {
		return err
	}
	d.done <- nil
	return nil
}

// Mem buffers in memory and acks — a store that loses every commit on a
// crash.
type Mem struct {
	m map[string][]byte
}

// Put stores to the map only.
func (m *Mem) Put(p string, b []byte) error { // want `Store implementation \(\*Mem\)\.Put acks without reaching durable effects`
	m.m[p] = append([]byte(nil), b...)
	return nil
}

// Cached is durable on one path and acks before any durable call on the
// other: a Put that returns nil for a seq it merely remembers.
type Cached struct {
	fs   shim.FS
	seen map[string]bool
}

// Put skips the commit for a remembered key — the returned nil vouches for
// nothing on disk.
func (c *Cached) Put(p string, b []byte) error {
	if c.seen[p] {
		return nil // want `commit ack \(return nil from Put\) not dominated by durable effects`
	}
	if err := c.fs.SyncFile(p); err != nil {
		return err
	}
	if err := c.fs.Rename(p+".tmp", p); err != nil {
		return err
	}
	if err := c.fs.SyncDir("."); err != nil {
		return err
	}
	c.seen[p] = true
	return nil
}

// Early acks before the durable sequence runs.
type Early struct {
	fs   shim.FS
	done chan error
}

// Put acks first, commits after — the ack vouches for nothing.
func (e *Early) Put(p string, b []byte) error {
	e.done <- nil // want `commit ack \(send of nil on an error channel\) not dominated by durable effects`
	if err := e.fs.SyncFile(p); err != nil {
		return err
	}
	if err := e.fs.Rename(p+".tmp", p); err != nil {
		return err
	}
	return e.fs.SyncDir(".")
}

const kindPutDone byte = 0x45

func writeFrame(w io.Writer, kind byte, payload []byte) error {
	_, err := w.Write([]byte{kind})
	return err
}

// Srv models the remote server's commit path.
type Srv struct {
	st Store
}

// Commit stores through the interface — the durable summary arrives
// through resolution to Disk — then replies.
func (s *Srv) Commit(w io.Writer, p string, b []byte) error {
	if err := s.st.Put(p, b); err != nil {
		return err
	}
	return writeFrame(w, kindPutDone, nil)
}

// CommitEarly replies without storing anything.
func (s *Srv) CommitEarly(w io.Writer) error {
	return writeFrame(w, kindPutDone, nil) // want `commit ack \(commit-reply frame write\) not dominated by durable effects`
}
