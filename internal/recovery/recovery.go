// Package recovery restores checkpoint chains. Manager orchestrates
// multi-level recovery: it owns a process's checkpoint chains at the three
// levels (node-local disk, RAID-5 peer group, remote storage), applies each
// failure class's destruction semantics, and restores the process image
// from the levels able to recover the failure — the runtime counterpart of
// the Markov models' recovery states. Those levels are read as one replica
// set in cost order, through ReplicaSet, the verified per-seq restore both
// facades use, so there is one restore rule.
//
// The manager programs exclusively against the storage.Store contract, so a
// "level" can be a store over the in-memory storage.MemFS (the simulators'
// levels), a durable directory, a networked peer reached over the
// replication protocol, or a quorum group — recovery logic is identical
// across all of them.
package recovery

import (
	"context"
	"fmt"

	"aic/internal/ckpt"
	"aic/internal/failure"
	"aic/internal/memsim"
	"aic/internal/storage"
)

// Manager tracks one process's checkpoints across the levels.
type Manager struct {
	proc   string
	levels [3]storage.Store // index 0 = L1 local, 1 = L2 RAID, 2 = L3 remote
}

// NewManager creates a manager over the three level stores.
func NewManager(proc string, local, raid, remote storage.Store) *Manager {
	return &Manager{proc: proc, levels: [3]storage.Store{local, raid, remote}}
}

// Store places an encoded checkpoint at every level: the paper's L2 and L3
// writes inherently include L1.
func (m *Manager) Store(ctx context.Context, c *ckpt.Checkpoint) error {
	data := c.Encode()
	for lv, ls := range m.levels {
		if err := ls.Put(ctx, m.proc, c.Seq, data); err != nil {
			return fmt.Errorf("recovery: level %d: %w", lv+1, err)
		}
	}
	return nil
}

// ApplyFailure destroys the state the failure class takes with it: a total
// node failure erases the node-local chain; transient and partial-node
// failures leave all storage intact (the paper's partial failure loses
// cores, not the disk).
func (m *Manager) ApplyFailure(ctx context.Context, lv failure.Level) {
	if lv == failure.TotalNode {
		_ = m.levels[0].Delete(ctx, m.proc)
	}
}

// Info reports what a recovery used: the replayed prefix's report (its
// CPUState is the execution state the resumed process loads), the deepest
// level any replayed element was read from, and the modelled time to read
// each contributing level's share of the replayed bytes, summed.
type Info struct {
	*GoodReport
	SourceLevel int // 1..3
	ReadTime    float64
}

// levelNames names the levels as replicas of one replica set.
var levelNames = [3]string{"L1", "L2", "L3"}

// Recover restores the process image after a failure of the given class.
// The levels at and above the failure level are a replica set in placement
// order, which is also cost order (a higher-level checkpoint can recover
// every lower-level failure; lower levels may be destroyed or out of the
// replacement node's reach), so the restore is ReplicaSet's: the newest
// intact anchor, then the longest verifiable run after it, each seq read
// from the cheapest level whose copy verifies. A damaged chain rewinds to
// its newest intact prefix rather than declaring the process unrecoverable.
func (m *Manager) Recover(ctx context.Context, lv failure.Level) (*memsim.AddressSpace, Info, error) {
	start := max(int(lv), 1) - 1
	names, levels := levelNames[start:], m.levels[start:]
	set := ReplicaSet{Fan: new(storage.FanOut), Place: func(string) ([]string, []storage.Store, error) {
		return names, levels, nil
	}}
	as, rep, err := set.Restore(ctx, m.proc)
	if err != nil {
		return nil, Info{}, fmt.Errorf("recovery: no surviving checkpoint chain can recover a %v failure of %s: %w", lv, m.proc, err)
	}
	info := Info{GoodReport: rep}
	for r, ls := range levels {
		if n, read := rep.ReplicaBytes[r]; read {
			info.SourceLevel = start + r + 1
			info.ReadTime += ls.Target().TransferTime(n)
		}
	}
	return as, info, nil
}

// Reset wipes the process's chains at every level — used when a recovery
// starts a fresh checkpoint epoch with a new full checkpoint.
func (m *Manager) Reset(ctx context.Context) {
	for _, ls := range m.levels {
		_ = ls.Delete(ctx, m.proc)
	}
}
