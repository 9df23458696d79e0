package recovery

import (
	"errors"
	"fmt"
	"sort"

	"aic/internal/ckpt"
	"aic/internal/memsim"
	"aic/internal/storage"
)

// GoodReport describes what a last-good-prefix restore kept and what it had
// to give up. All values are in the caller's Stored.Seq units (storage
// sequence numbers for store chains; the aic facade labels positional
// chains with their indexes).
type GoodReport struct {
	AnchorSeq int   // the full checkpoint the restored prefix starts at
	LastSeq   int   // the newest checkpoint actually replayed
	Restored  []int // seqs replayed, in order
	// Discarded lists every stored seq not replayed: corrupt elements,
	// everything beyond the first break in the chain, and stale elements
	// before the anchor.
	Discarded []int
	// Corrupt is the subset of Discarded that failed ckpt.Decode (torn
	// write, bit flip caught by the CRC trailer, truncation) or decoded
	// but failed to replay.
	Corrupt []int
	// CPUState is the replayed prefix's final execution state — the blob a
	// resumed process must load to match the restored image.
	CPUState []byte
	// Bytes counts the bytes of the replayed prefix.
	Bytes int64
	// Replica is the one replica every replayed element was read from (an
	// index into the chain key's placement, see ReplicaSet); -1 when the
	// replayed prefix draws on several, and for single-chain restores.
	Replica int
	// ReplicaBytes splits Bytes by the replica each replayed element was
	// read from (key -1 for single-chain restores).
	ReplicaBytes map[int]int64
}

// Element is one chain element ready to replay: the sequence number it was
// stored under, its bytes (nil for a striped element, decoded where its
// parts lie: Ckpt.Encode joins them) and their stored size, the decoded
// frame (nil: no copy verified) and the replica it was read from (-1
// outside a replica-set read).
type Element struct {
	Seq     int
	Data    []byte
	Size    int64
	Ckpt    *ckpt.Checkpoint
	Replica int
}

// RestoreLatestGood replays the newest intact full-checkpoint-anchored
// prefix of a possibly-damaged chain: it decodes every element (tolerating
// corrupt ones), anchors at the newest decodable full checkpoint, and walks
// forward while elements stay intact and sequence-contiguous (by their
// decoded sequence numbers). Corrupt or missing tails are discarded rather
// than failing the whole restore — the restart hazard ckpt.Restore's
// fail-hard contract cannot handle. It fails only when no full checkpoint
// in the chain survives.
func RestoreLatestGood(chain []storage.Stored) (*memsim.AddressSpace, *GoodReport, error) {
	elems := make([]Element, len(chain))
	for i, s := range chain {
		c, _ := ckpt.Decode(s.Data) // a frame that fails to decode replays as corrupt
		elems[i] = Element{Seq: s.Seq, Data: s.Data, Size: int64(len(s.Data)), Ckpt: c, Replica: -1}
	}
	sort.SliceStable(elems, func(i, j int) bool { return elems[i].Seq < elems[j].Seq })
	return replayLatestGood(elems)
}

// replayLatestGood is RestoreLatestGood over elements already decoded and in
// sequence order: a replica-set read verified each frame to choose its copy.
// An element that decodes but fails to replay is marked corrupt in elems
// (its Ckpt set to nil).
func replayLatestGood(elems []Element) (*memsim.AddressSpace, *GoodReport, error) {
	if len(elems) == 0 {
		return nil, nil, fmt.Errorf("recovery: empty chain")
	}
	// Anchor at the newest intact full checkpoint: any earlier anchor's run
	// is cut short at (or before) this one, so later always wins.
	rep := &GoodReport{ReplicaBytes: make(map[int]int64)}
	anchor := -1
	for i, e := range elems {
		if e.Ckpt == nil {
			rep.Corrupt = append(rep.Corrupt, e.Seq)
		} else if e.Ckpt.Kind == ckpt.Full {
			anchor = i
		}
	}
	if anchor < 0 {
		return nil, nil, fmt.Errorf("recovery: no intact full checkpoint anchors the chain")
	}
	prefix := []*ckpt.Checkpoint{elems[anchor].Ckpt}
	end := anchor
	for end+1 < len(elems) {
		next := elems[end+1].Ckpt
		if next == nil || next.Kind == ckpt.Full || next.Seq != prefix[len(prefix)-1].Seq+1 {
			break
		}
		prefix = append(prefix, next)
		end++
	}
	as, err := ckpt.Restore(prefix)
	var bad *ckpt.ElementError
	if errors.As(err, &bad) {
		// The frame passed its checksum but does not replay (a page that
		// decodes to the wrong size): it is as corrupt as a torn frame, so
		// mark it and replay again, which rewinds past it.
		elems[anchor+bad.Elem].Ckpt = nil
		return replayLatestGood(elems)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("recovery: intact prefix failed to replay: %w", err)
	}
	rep.AnchorSeq = elems[anchor].Seq
	rep.LastSeq = elems[end].Seq
	rep.CPUState = prefix[len(prefix)-1].CPUState
	rep.Replica = elems[anchor].Replica
	for i, e := range elems {
		if i >= anchor && i <= end {
			rep.Restored = append(rep.Restored, e.Seq)
			rep.Bytes += e.Size
			rep.ReplicaBytes[e.Replica] += e.Size
			if e.Replica != rep.Replica {
				rep.Replica = -1
			}
		} else if e.Ckpt != nil {
			rep.Discarded = append(rep.Discarded, e.Seq)
		}
	}
	// Corrupt elements are discarded by definition.
	rep.Discarded = append(rep.Discarded, rep.Corrupt...)
	sort.Ints(rep.Discarded)
	return as, rep, nil
}
