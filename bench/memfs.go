package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"aic/internal/storage"
)

// memFS is one store's disk: a storage.FS held in memory. It outlives the
// FSStore opened over it, so dropping the store and opening a new one over
// the same memFS is a restart from what was "on disk".
//
// The benchmark may write only inside its checkout, and a checkout on the
// build host's shared ext4 disk is not steady enough to measure on even with
// the flush call dropped (journal commits and writeback stall create, rename
// and unlink for whole runs). So the device is modelled: bytes are copied in
// and out as a filesystem would, a flush is storage.DelayFS's fixed stall,
// and the filesystem's own syscall cost is not in the numbers.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte // contents are never modified in place
	dirs  map[string]bool
}

var _ storage.FS = (*memFS)(nil)

func newMemFS() *memFS {
	return &memFS{files: make(map[string][]byte), dirs: map[string]bool{".": true, "/": true}}
}

func notExist(op, path string) error {
	return &os.PathError{Op: op, Path: path, Err: syscall.ENOENT}
}

func (m *memFS) MkdirAll(path string, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := filepath.Clean(path); !m.dirs[p]; p = filepath.Dir(p) {
		if _, isFile := m.files[p]; isFile {
			return &os.PathError{Op: "mkdir", Path: p, Err: syscall.ENOTDIR}
		}
		m.dirs[p] = true
	}
	return nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	data, ok := m.files[filepath.Clean(name)]
	m.mu.Unlock()
	if !ok {
		return nil, notExist("open", name)
	}
	return append([]byte(nil), data...), nil
}

func (m *memFS) WriteFile(name string, data []byte, _ os.FileMode) error {
	name = filepath.Clean(name)
	own := append([]byte(nil), data...)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[filepath.Dir(name)] {
		return notExist("open", name)
	}
	m.files[name] = own
	return nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldpath]
	if !ok || !m.dirs[filepath.Dir(newpath)] {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: syscall.ENOENT}
	}
	delete(m.files, oldpath)
	m.files[newpath] = data
	return nil
}

func (m *memFS) Remove(name string) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; ok {
		delete(m.files, name)
		return nil
	}
	if !m.dirs[name] {
		return notExist("remove", name)
	}
	if len(m.children(name)) > 0 {
		return &os.PathError{Op: "remove", Path: name, Err: syscall.ENOTEMPTY}
	}
	delete(m.dirs, name)
	return nil
}

func (m *memFS) RemoveAll(path string) error {
	path = filepath.Clean(path)
	under := path + string(filepath.Separator)
	m.mu.Lock()
	defer m.mu.Unlock()
	for name := range m.files {
		if name == path || strings.HasPrefix(name, under) {
			delete(m.files, name)
		}
	}
	for name := range m.dirs {
		if name == path || strings.HasPrefix(name, under) {
			delete(m.dirs, name)
		}
	}
	return nil
}

// children lists dir's entries by name. Caller holds m.mu.
func (m *memFS) children(dir string) []os.DirEntry {
	var out []os.DirEntry
	for name, data := range m.files {
		if filepath.Dir(name) == dir {
			out = append(out, memEntry{name: filepath.Base(name), size: int64(len(data))})
		}
	}
	for name := range m.dirs {
		if name != dir && filepath.Dir(name) == dir {
			out = append(out, memEntry{name: filepath.Base(name), dir: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

func (m *memFS) ReadDir(name string) ([]os.DirEntry, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[name] {
		return nil, notExist("open", name)
	}
	return m.children(name), nil
}

// SyncFile and SyncDir only check that there is something to flush; the
// flush itself is the DelayFS stall in front of them.
func (m *memFS) SyncFile(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[filepath.Clean(name)]; !ok {
		return notExist("open", name)
	}
	return nil
}

func (m *memFS) SyncDir(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[filepath.Clean(name)] {
		return notExist("open", name)
	}
	return nil
}

// bytes is the total size of the files held.
func (m *memFS) bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, data := range m.files {
		n += int64(len(data))
	}
	return n
}

// memEntry is both the os.DirEntry and the fs.FileInfo of one entry.
type memEntry struct {
	name string
	size int64
	dir  bool
}

func (e memEntry) Name() string               { return e.name }
func (e memEntry) IsDir() bool                { return e.dir }
func (e memEntry) Info() (fs.FileInfo, error) { return e, nil }
func (e memEntry) Size() int64                { return e.size }
func (e memEntry) ModTime() time.Time         { return time.Time{} }
func (e memEntry) Sys() any                   { return nil }
func (e memEntry) Type() fs.FileMode          { return e.Mode().Type() }
func (e memEntry) Mode() fs.FileMode {
	if e.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
