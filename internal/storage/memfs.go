package storage

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// MemFS is an FS held in memory: the disk of an in-memory store. Paths are
// cleaned, "/" and "." always exist, and file contents are copied in and
// out, never aliased. The syncs only check that their path exists: nothing
// here outlives the process, so there is nothing to pin. Rename moves files
// only. It is safe for concurrent use.
type MemFS struct {
	mu   sync.Mutex
	dirs map[string]map[string]*memFile // dir path -> entry name -> entry
}

// memFile is one directory entry and its fs.FileInfo; a file's data is
// never modified in place.
type memFile struct {
	name string
	data []byte
	mode fs.FileMode
}

const memDirMode = fs.ModeDir | 0o755

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{dirs: map[string]map[string]*memFile{"/": {}, ".": {}}}
}

// NewMemStore returns an empty store over a fresh MemFS: the in-memory
// level of the simulators and of aicd -mem, under FSStore's contract.
func NewMemStore(target Target) *FSStore {
	fs, err := NewFSStoreFS("/", target, NewMemFS())
	if err != nil {
		panic(err) // unreachable: a fresh MemFS already holds its root
	}
	return fs
}

func pathErr(op, path string, errno syscall.Errno) error {
	return &os.PathError{Op: op, Path: path, Err: errno}
}

// lookup returns the entry at the clean path p, or nil. A root has no
// entry in a parent but is a directory. Caller holds m.mu.
func (m *MemFS) lookup(p string) *memFile {
	if e := m.dirs[filepath.Dir(p)][filepath.Base(p)]; e != nil {
		return e
	}
	if m.dirs[p] != nil {
		return &memFile{name: p, mode: memDirMode}
	}
	return nil
}

// MkdirAll creates path and any missing parents.
func (m *MemFS) MkdirAll(path string, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var missing []string
	for p := filepath.Clean(path); m.dirs[p] == nil; p = filepath.Dir(p) {
		if m.lookup(p) != nil {
			return pathErr("mkdir", p, syscall.ENOTDIR)
		}
		missing = append(missing, p)
	}
	for i := len(missing) - 1; i >= 0; i-- {
		p := missing[i]
		m.dirs[p] = map[string]*memFile{}
		m.dirs[filepath.Dir(p)][filepath.Base(p)] = &memFile{name: filepath.Base(p), mode: memDirMode}
	}
	return nil
}

// ReadFile returns a copy of name's contents, made outside the lock: a
// file's data is never modified in place.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	e := m.lookup(filepath.Clean(name))
	m.mu.Unlock()
	switch {
	case e == nil:
		return nil, pathErr("open", name, syscall.ENOENT)
	case e.IsDir():
		return nil, pathErr("read", name, syscall.EISDIR)
	default:
		return append([]byte{}, e.data...), nil
	}
}

// WriteFile replaces name's contents with a copy of data.
func (m *MemFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	p := filepath.Clean(name)
	f := &memFile{name: filepath.Base(p), data: append([]byte{}, data...), mode: perm.Perm()}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch parent, e := m.dirs[filepath.Dir(p)], m.lookup(p); {
	case parent == nil:
		return pathErr("open", name, syscall.ENOENT)
	case e != nil && e.IsDir():
		return pathErr("open", name, syscall.EISDIR)
	default:
		parent[f.name] = f
		return nil
	}
}

// Rename moves a file, replacing any file at newpath.
func (m *MemFS) Rename(oldpath, newpath string) error {
	o, n := filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	e, to, dst := m.lookup(o), m.dirs[filepath.Dir(n)], m.lookup(n)
	switch {
	case e == nil || to == nil:
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: syscall.ENOENT}
	case e.IsDir() || dst != nil && dst.IsDir():
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: syscall.EISDIR}
	}
	delete(m.dirs[filepath.Dir(o)], e.name)
	to[filepath.Base(n)] = &memFile{name: filepath.Base(n), data: e.data, mode: e.mode}
	return nil
}

// Remove deletes a file or an empty directory.
func (m *MemFS) Remove(name string) error {
	p := filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	switch e := m.lookup(p); {
	case e == nil:
		return pathErr("remove", name, syscall.ENOENT)
	case e.IsDir() && len(m.dirs[p]) > 0:
		return pathErr("remove", name, syscall.ENOTEMPTY)
	}
	delete(m.dirs[filepath.Dir(p)], filepath.Base(p))
	delete(m.dirs, p)
	return nil
}

// RemoveAll deletes path and everything under it; a missing path is no
// error.
func (m *MemFS) RemoveAll(path string) error {
	p := filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.dirs[filepath.Dir(p)], filepath.Base(p))
	for d := range m.dirs {
		if d == p || strings.HasPrefix(d, p+string(filepath.Separator)) {
			delete(m.dirs, d)
		}
	}
	return nil
}

// ReadDir lists name's entries in name order.
func (m *MemFS) ReadDir(name string) ([]os.DirEntry, error) {
	p := filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	dir := m.dirs[p]
	if dir == nil {
		if m.lookup(p) != nil {
			return nil, pathErr("readdirent", name, syscall.ENOTDIR)
		}
		return nil, pathErr("open", name, syscall.ENOENT)
	}
	out := make([]os.DirEntry, 0, len(dir))
	for _, e := range dir {
		out = append(out, fs.FileInfoToDirEntry(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

// SyncFile reports whether name exists.
func (m *MemFS) SyncFile(name string) error { return m.SyncDir(name) }

// SyncDir reports whether name exists.
func (m *MemFS) SyncDir(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.lookup(filepath.Clean(name)) == nil {
		return pathErr("open", name, syscall.ENOENT)
	}
	return nil
}

func (e *memFile) Name() string       { return e.name }
func (e *memFile) Size() int64        { return int64(len(e.data)) }
func (e *memFile) Mode() fs.FileMode  { return e.mode }
func (e *memFile) IsDir() bool        { return e.mode.IsDir() }
func (e *memFile) ModTime() time.Time { return time.Time{} }
func (e *memFile) Sys() any           { return nil }
