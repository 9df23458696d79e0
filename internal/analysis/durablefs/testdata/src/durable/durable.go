// Package durable is a durablefs fixture with violations: direct os calls
// outside the shim and a rename with no preceding fsync.
package durable

import "os"

// FS mirrors the storage shim's shape.
type FS interface {
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	SyncFile(name string) error
	SyncDir(name string) error
}

// OSFS is the passthrough shim; direct os use is its whole job.
type OSFS struct{}

func (OSFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (OSFS) SyncFile(name string) error           { return nil }
func (OSFS) SyncDir(name string) error            { return nil }

func bypassesShim(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644) // want `direct os\.WriteFile bypasses the FS shim`
}

func readsBypassShim(path string) ([]byte, error) {
	return os.ReadFile(path) // want `direct os\.ReadFile bypasses the FS shim`
}

func statBypassesShim(path string) (os.FileInfo, error) {
	return os.Stat(path) // want `direct os\.Stat bypasses the FS shim`
}

func renameWithoutSync(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	if err := fsys.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return fsys.Rename(tmp, path) // want `rename of tmp is not preceded by SyncFile\(tmp\)`
}

func syncsWrongFile(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	if err := fsys.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := fsys.SyncFile(path); err != nil {
		return err
	}
	return fsys.Rename(tmp, path) // want `rename of tmp is not preceded by SyncFile\(tmp\)`
}
