package storage

import (
	"errors"
	"fmt"
	"os"
)

// FS abstracts the filesystem primitives FSStore composes into its durable
// write protocol. The production implementation (OSFS) talks to the real
// filesystem; FaultFS interposes simulated crashes, truncated writes and
// lost renames into any window of that protocol so the crash-consistency
// tests can cover every interleaving a power failure could produce.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadFile(name string) ([]byte, error)
	// WriteFile writes name (non-atomically — callers wanting atomicity
	// write a temp name and Rename).
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	ReadDir(name string) ([]os.DirEntry, error)
	// SyncFile fsyncs an existing file's contents to stable storage.
	SyncFile(name string) error
	// SyncDir fsyncs a directory, making previously-applied renames and
	// unlinks within it durable.
	SyncDir(name string) error
}

// OSFS is the passthrough FS used outside tests.
type OSFS struct{}

// MkdirAll calls os.MkdirAll.
func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// ReadFile calls os.ReadFile.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// WriteFile calls os.WriteFile.
func (OSFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}

// Rename calls os.Rename.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove calls os.Remove.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// RemoveAll calls os.RemoveAll.
func (OSFS) RemoveAll(path string) error { return os.RemoveAll(path) }

// ReadDir calls os.ReadDir.
func (OSFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// SyncFile opens the file and fsyncs it.
func (OSFS) SyncFile(name string) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// SyncDir opens the directory and fsyncs it, pinning renames within it.
func (OSFS) SyncDir(name string) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	// Some filesystems reject fsync on directories; a rename there is
	// already durable, so treat the error as advisory.
	if err := f.Sync(); err != nil && !isSyncUnsupported(err) {
		return err
	}
	return nil
}

func isSyncUnsupported(err error) bool {
	pe, ok := err.(*os.PathError)
	return ok && (errors.Is(pe.Err, os.ErrInvalid) || pe.Err.Error() == "invalid argument")
}

// stageWrite is the first half of the durable-write protocol every FSStore
// file goes through: write a temp file, fsync it, rename it over the
// destination. A crash at any step leaves either the old content or the
// new — never a torn file under the final name. The rename is applied but
// not yet pinned — the caller owes a SyncDir before relying on it.
func stageWrite(fsys FS, path string, data []byte, perm os.FileMode) error {
	tmp := path + ".tmp"
	if err := fsys.WriteFile(tmp, data, perm); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := fsys.SyncFile(tmp); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}
