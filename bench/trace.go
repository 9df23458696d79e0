package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aic/internal/storage"
)

// Span levels, outside in. A span's parent is the innermost span of a lower
// level that contains it and belongs to the same store (or to none).
const (
	levelOp     = iota // one timed operation of the benchmark
	levelCall          // a call the benchmark makes into a layer
	levelClient        // a store call the facade makes (remote client or local store)
	levelPeer          // the peer's store call behind a remote one
	levelFS            // one filesystem primitive
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch on the process's monotonic clock.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an op's root span
	Level  int    `json:"level"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Store  string `json:"store,omitempty"`
	Key    string `json:"key,omitempty"`
	Seq    int    `json:"seq,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer collects spans in memory. The benchmark is a closed loop with one
// client, so at any instant at most one op is open and every span recorded
// meanwhile — on the client's goroutines or a peer's — belongs to it. Spans
// outside an op (set-up, mutation, verification) are dropped.
type tracer struct {
	epoch time.Time
	op    atomic.Int64 // the open op's id, 0 when none

	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s span, start time.Time) {
	op := t.op.Load()
	if op == 0 {
		return
	}
	s.Op = int(op)
	s.Start = int64(start.Sub(t.epoch))
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beginOp opens an op and returns the func that closes it, recording its
// root span. A nil tracer traces nothing.
func (t *tracer) beginOp(name string) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	t.ops++
	id = t.ops
	t.mu.Unlock()
	start := time.Now()
	t.op.Store(int64(id))
	return id, func() {
		t.add(span{Level: levelOp, Layer: "bench", Name: name}, start)
		t.op.Store(0)
	}
}

// call times one call from the benchmark into a layer.
func (t *tracer) call(layer, name string, bytes int64) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.add(span{Level: levelCall, Layer: layer, Name: name, Bytes: bytes}, start) }
}

// traceStore times every call through a storage.Store seam.
type traceStore struct {
	inner storage.Store
	tr    *tracer
	store string // which store this is: peer-N or local
	level int
	layer string
}

func (s *traceStore) rec(name, key string, seq int, bytes int64, start time.Time) {
	s.tr.add(span{Level: s.level, Layer: s.layer, Name: name, Store: s.store, Key: key, Seq: seq, Bytes: bytes}, start)
}

func (s *traceStore) Put(ctx context.Context, proc string, seq int, data []byte) error {
	defer s.rec("put", proc, seq, int64(len(data)), time.Now())
	return s.inner.Put(ctx, proc, seq, data)
}

func (s *traceStore) Get(ctx context.Context, proc string) ([]storage.Stored, []int, error) {
	start := time.Now()
	chain, missing, err := s.inner.Get(ctx, proc)
	var n int64
	for _, el := range chain {
		n += int64(len(el.Data))
	}
	s.rec("get", proc, 0, n, start)
	return chain, missing, err
}

func (s *traceStore) List(ctx context.Context) ([]string, error) {
	defer s.rec("list", "", 0, 0, time.Now())
	return s.inner.List(ctx)
}

func (s *traceStore) Delete(ctx context.Context, proc string) error {
	defer s.rec("delete", proc, 0, 0, time.Now())
	return s.inner.Delete(ctx, proc)
}

func (s *traceStore) Scrub(ctx context.Context, proc string, repair bool) (*storage.ScrubReport, error) {
	defer s.rec("scrub", proc, 0, 0, time.Now())
	return s.inner.Scrub(ctx, proc, repair)
}

func (s *traceStore) Truncate(ctx context.Context, proc string, fullSeq int) error {
	defer s.rec("truncate", proc, fullSeq, 0, time.Now())
	return s.inner.Truncate(ctx, proc, fullSeq)
}

func (s *traceStore) Target() storage.Target { return s.inner.Target() }

// traceFSStore adds the optional refinements of the directory store, which
// the replication server (GetElem), the quorum fan-out (GetElem) and the
// compactor (ReplaceAnchor, GCChunks) probe for by type assertion: without
// them the program under the wrapper would take other code paths.
type traceFSStore struct {
	traceStore
	fs *storage.FSStore
}

func (s *traceFSStore) GetElem(ctx context.Context, proc string, seq int) ([]byte, bool, error) {
	start := time.Now()
	data, ok, err := s.fs.GetElem(ctx, proc, seq)
	s.rec("get_elem", proc, seq, int64(len(data)), start)
	return data, ok, err
}

func (s *traceFSStore) ReplaceAnchor(ctx context.Context, proc string, anchorSeq int, full []byte, drop []int) error {
	defer s.rec("replace_anchor", proc, anchorSeq, int64(len(full)), time.Now())
	return s.fs.ReplaceAnchor(ctx, proc, anchorSeq, full, drop)
}

func (s *traceFSStore) GCChunks(ctx context.Context) (int, int64, error) {
	defer s.rec("gc_chunks", "", 0, 0, time.Now())
	return s.fs.GCChunks(ctx)
}

// traceFS counts and times every filesystem primitive of one store. Key
// holds the class of file touched, so manifest and chunk-index rewrites can
// be told from checkpoint and chunk bodies.
type traceFS struct {
	storage.FS
	tr    *tracer
	store string
}

// fileClass names what kind of store file path is.
func fileClass(path string) string {
	base := strings.TrimSuffix(filepath.Base(path), ".tmp")
	switch {
	case base == "manifest.json":
		return "manifest"
	case base == "index.json":
		return "chunk_index"
	case strings.HasSuffix(base, ".chk"):
		return "chunk"
	case strings.HasSuffix(base, ".aic"):
		return "elem"
	}
	return "dir"
}

func (f *traceFS) rec(name, path string, bytes int64, start time.Time) {
	f.tr.add(span{Level: levelFS, Layer: "storage", Name: name, Store: f.store, Key: fileClass(path), Bytes: bytes}, start)
}

func (f *traceFS) MkdirAll(path string, perm os.FileMode) error {
	defer f.rec("fs.mkdir", path, 0, time.Now())
	return f.FS.MkdirAll(path, perm)
}

func (f *traceFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	data, err := f.FS.ReadFile(name)
	f.rec("fs.read", name, int64(len(data)), start)
	return data, err
}

func (f *traceFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	defer f.rec("fs.write", name, int64(len(data)), time.Now())
	return f.FS.WriteFile(name, data, perm)
}

func (f *traceFS) Rename(oldpath, newpath string) error {
	defer f.rec("fs.rename", newpath, 0, time.Now())
	return f.FS.Rename(oldpath, newpath)
}

func (f *traceFS) Remove(name string) error {
	defer f.rec("fs.remove", name, 0, time.Now())
	return f.FS.Remove(name)
}

func (f *traceFS) RemoveAll(path string) error {
	defer f.rec("fs.remove", path, 0, time.Now())
	return f.FS.RemoveAll(path)
}

func (f *traceFS) ReadDir(name string) ([]os.DirEntry, error) {
	defer f.rec("fs.readdir", name, 0, time.Now())
	return f.FS.ReadDir(name)
}

func (f *traceFS) SyncFile(name string) error {
	defer f.rec("fs.sync", name, 0, time.Now())
	return f.FS.SyncFile(name)
}

func (f *traceFS) SyncDir(name string) error {
	defer f.rec("fs.sync", name, 0, time.Now())
	return f.FS.SyncDir(name)
}
