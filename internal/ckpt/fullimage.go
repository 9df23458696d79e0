package ckpt

import "aic/internal/memsim"

// FullFromImage synthesizes a full checkpoint frame that restores to
// exactly the given address space and CPU state, carrying the given
// sequence number. It is the compactor's anchor-rewrite primitive: restore
// a chain's prefix, re-encode the resulting image as one Full frame, and
// the chain [FullFromImage(prefix image), suffix...] replays to the same
// state as the original chain — the equivalence the differential
// compaction tests pin byte-for-byte.
func FullFromImage(as *memsim.AddressSpace, seq int, cpuState []byte) *Checkpoint {
	c := &Checkpoint{
		Seq:      seq,
		Kind:     Full,
		PageSize: as.PageSize(),
		CPUState: append([]byte(nil), cpuState...),
	}
	c.rawPagesFrame(as, as.MappedPages(), 0)
	return c
}
