package storage

import (
	"errors"
	"os"
	"path/filepath"
)

// ErrCrashed is returned by every FaultFS operation at and after the
// configured crash point: the simulated machine is down, so nothing else
// succeeds until the store is "rebooted" (reopened over a plain OSFS).
var ErrCrashed = errors.New("storage: simulated crash")

// Op names the FS primitives FaultFS can crash on.
type Op string

// FaultFS operation kinds.
const (
	OpWriteFile Op = "writefile"
	OpRename    Op = "rename"
	OpSyncFile  Op = "syncfile"
	OpSyncDir   Op = "syncdir"
	OpRemove    Op = "remove"
)

// FaultFS is an os-shim that injects a crash into one precise window of the
// durable-write protocol. It counts operations per kind and fails the Nth
// occurrence of CrashOp, with configurable wreckage:
//
//   - a WriteFile crash leaves the first PartialBytes bytes on disk (a torn
//     write); PartialBytes < 0 leaves no file at all;
//   - a SyncFile crash truncates the just-written file to PartialBytes,
//     modelling page-cache contents lost before reaching the platter;
//   - a Rename crash leaves the rename unapplied;
//   - a crash with LoseUnsyncedRenames undoes every rename and unlink not
//     yet covered by a successful SyncDir of its directory — the exact
//     hazard fsyncless rename and unlink protocols have on power loss.
//
// After the crash fires, every subsequent call returns ErrCrashed with no
// side effects — unless Transient is set, in which case only the targeted
// operation fails (an I/O error, not a machine crash) and the filesystem
// keeps working, which is how the Put-unwind path is exercised.
type FaultFS struct {
	Inner FS // defaults to OSFS

	CrashOp             Op
	CrashN              int // 1-based occurrence of CrashOp that crashes
	PartialBytes        int // torn-write size for WriteFile/SyncFile crashes
	LoseUnsyncedRenames bool
	Transient           bool // fail the op but leave the FS alive

	counts  map[Op]int
	pending []renameRecord // renames and unlinks not yet pinned by SyncDir
	crashed bool
}

// renameRecord is one directory change a crash can still undo: a rename
// of oldpath to newpath, or (oldpath empty) an unlink of newpath.
type renameRecord struct {
	oldpath, newpath string
	overwritten      []byte // prior newpath content, for crash rollback
	hadOld           bool
}

// Arm schedules the crash for the nth future occurrence of op (counting from
// now, not from construction), with the given torn-write size. The chaos
// harness uses it to plant crash windows mid-run on a long-lived shim whose
// operation counters are already far along.
func (f *FaultFS) Arm(op Op, n, partialBytes int) {
	if f.counts == nil {
		f.counts = map[Op]int{}
	}
	f.CrashOp = op
	f.CrashN = f.counts[op] + n
	f.PartialBytes = partialBytes
}

// Disarm cancels a pending crash window without touching counters.
func (f *FaultFS) Disarm() { f.CrashOp, f.CrashN = "", 0 }

// Reboot clears the crashed state — the simulated machine comes back up over
// the same underlying filesystem, wreckage intact. Any pending crash window
// is disarmed; renames applied before the crash are treated as settled (a
// reboot implies the platter state is whatever the crash left).
func (f *FaultFS) Reboot() {
	f.crashed = false
	f.pending = nil
	f.Disarm()
}

// hit advances the op counter and reports whether this call is the crash
// point. Once crashed, every op short-circuits.
func (f *FaultFS) hit(op Op) (crashNow bool, dead bool) {
	if f.crashed {
		return false, true
	}
	if f.counts == nil {
		f.counts = map[Op]int{}
	}
	f.counts[op]++
	if op == f.CrashOp && f.counts[op] == f.CrashN {
		if !f.Transient {
			f.crashed = true
		}
		return true, false
	}
	return false, false
}

func (f *FaultFS) inner() FS {
	if f.Inner == nil {
		return OSFS{}
	}
	return f.Inner
}

// dropUnsyncedRenames rolls back renames and unlinks that never became
// durable: a renamed name reverts to the old one, and a target the rename
// had clobbered — or an unlinked file — reappears: the directory state a
// power failure before the fsync would have preserved.
func (f *FaultFS) dropUnsyncedRenames() {
	for i := len(f.pending) - 1; i >= 0; i-- {
		r := f.pending[i]
		if r.oldpath != "" {
			_ = f.inner().Rename(r.newpath, r.oldpath)
		}
		if r.hadOld {
			_ = f.inner().WriteFile(r.newpath, r.overwritten, 0o644)
		}
	}
	f.pending = nil
}

// MkdirAll passes through (directory creation is not a crash window we
// model; the store recreates directories on reopen anyway).
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if f.crashed {
		return ErrCrashed
	}
	return f.inner().MkdirAll(path, perm)
}

// ReadFile passes through until the crash.
func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if f.crashed {
		return nil, ErrCrashed
	}
	return f.inner().ReadFile(name)
}

// ReadDir passes through until the crash.
func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) {
	if f.crashed {
		return nil, ErrCrashed
	}
	return f.inner().ReadDir(name)
}

// WriteFile writes fully, or tears the write at the crash point.
func (f *FaultFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	crashNow, dead := f.hit(OpWriteFile)
	if dead {
		return ErrCrashed
	}
	if crashNow {
		if f.PartialBytes >= 0 {
			n := f.PartialBytes
			if n > len(data) {
				n = len(data)
			}
			_ = f.inner().WriteFile(name, data[:n], perm)
		}
		if f.LoseUnsyncedRenames {
			f.dropUnsyncedRenames()
		}
		return ErrCrashed
	}
	return f.inner().WriteFile(name, data, perm)
}

// SyncFile succeeds, or crashes leaving the file truncated to PartialBytes
// (what the disk had actually absorbed).
func (f *FaultFS) SyncFile(name string) error {
	crashNow, dead := f.hit(OpSyncFile)
	if dead {
		return ErrCrashed
	}
	if crashNow {
		if f.PartialBytes >= 0 {
			if data, err := f.inner().ReadFile(name); err == nil {
				n := f.PartialBytes
				if n > len(data) {
					n = len(data)
				}
				_ = f.inner().WriteFile(name, data[:n], 0o644)
			}
		} else {
			_ = f.inner().Remove(name)
		}
		if f.LoseUnsyncedRenames {
			f.dropUnsyncedRenames()
		}
		return ErrCrashed
	}
	return f.inner().SyncFile(name)
}

// Rename applies the rename (tracked as volatile until SyncDir), or crashes
// without applying it.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	crashNow, dead := f.hit(OpRename)
	if dead {
		return ErrCrashed
	}
	if crashNow {
		if f.LoseUnsyncedRenames {
			f.dropUnsyncedRenames()
		}
		return ErrCrashed
	}
	rec := renameRecord{oldpath: oldpath, newpath: newpath}
	if prior, err := f.inner().ReadFile(newpath); err == nil {
		rec.overwritten, rec.hadOld = prior, true
	}
	if err := f.inner().Rename(oldpath, newpath); err != nil {
		return err
	}
	f.pending = append(f.pending, rec)
	return nil
}

// SyncDir pins the directory's renames, or crashes — optionally rolling back
// every rename a real power failure would not have committed.
func (f *FaultFS) SyncDir(name string) error {
	crashNow, dead := f.hit(OpSyncDir)
	if dead {
		return ErrCrashed
	}
	if crashNow {
		if f.LoseUnsyncedRenames {
			f.dropUnsyncedRenames()
		}
		return ErrCrashed
	}
	if err := f.inner().SyncDir(name); err != nil {
		return err
	}
	// Renames inside this directory are now durable.
	kept := f.pending[:0]
	for _, r := range f.pending {
		if filepath.Dir(r.newpath) != name {
			kept = append(kept, r)
		}
	}
	f.pending = kept
	return nil
}

// Remove unlinks (tracked as volatile until SyncDir), or crashes without
// unlinking.
func (f *FaultFS) Remove(name string) error {
	crashNow, dead := f.hit(OpRemove)
	if dead {
		return ErrCrashed
	}
	if crashNow {
		if f.LoseUnsyncedRenames {
			f.dropUnsyncedRenames()
		}
		return ErrCrashed
	}
	rec := renameRecord{newpath: name}
	if prior, err := f.inner().ReadFile(name); err == nil {
		rec.overwritten, rec.hadOld = prior, true
	}
	if err := f.inner().Remove(name); err != nil {
		return err
	}
	if rec.hadOld {
		f.pending = append(f.pending, rec)
	}
	return nil
}

// RemoveAll passes through until the crash.
func (f *FaultFS) RemoveAll(path string) error {
	if f.crashed {
		return ErrCrashed
	}
	return f.inner().RemoveAll(path)
}

// FlipBit flips one bit of the file at path — the silent-corruption
// injection the scrub's CRC cross-check must catch.
//
//aiclint:ignore durablefs simulates an external corruptor, so it must bypass the FS shim's durability protocol
func FlipBit(path string, byteOffset int, bit uint) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if byteOffset < 0 || byteOffset >= len(data) {
		return errors.New("storage: FlipBit offset out of range")
	}
	data[byteOffset] ^= 1 << (bit % 8)
	return os.WriteFile(path, data, 0o644)
}
