package storage

import (
	"context"
	"errors"
)

// ErrStaleSeq reports a Put whose sequence number does not extend the
// chain. The replication server uses it to distinguish a duplicate commit
// (benign — the transfer was acknowledged but the ack was lost) from a
// genuinely out-of-order write.
var ErrStaleSeq = errors.New("stale checkpoint sequence")

// Store is the single contract every checkpoint destination satisfies — the
// FSStore engine (durable and node-local on a directory, or the in-memory
// level that models one of the paper's three levels on MemFS), the
// networked RemoteStore speaking the replication protocol, and the policy
// wrappers over any of them. It is the only store
// type that crosses package boundaries: recovery, the aic facade and the
// commands all program against it, so a chain can move between a local
// directory and a peer group without the caller changing.
//
// Every operation takes a context for cancellation and deadlines — local
// implementations check it at entry, networked ones propagate it into dial
// and I/O deadlines.
type Store interface {
	// Put durably appends one encoded checkpoint for proc. Sequence
	// numbers must be strictly increasing within a chain; a Put that
	// returns nil guarantees the checkpoint is retrievable (for networked
	// stores: acknowledged by the peer, or by a quorum of them).
	Put(ctx context.Context, proc string, seq int, data []byte) error

	// Get returns proc's stored chain in ascending sequence order, best
	// effort: elements that can no longer be read are reported in missing
	// rather than failing the whole chain (the last-good-prefix restore
	// decides what the gaps cost). It fails only when the chain's own
	// metadata is unreadable.
	Get(ctx context.Context, proc string) (chain []Stored, missing []int, err error)

	// List returns the process names with chains in the store, sorted.
	List(ctx context.Context) ([]string, error)

	// Delete removes proc's chain entirely.
	Delete(ctx context.Context, proc string) error

	// Scrub cross-checks proc's chain against its per-frame integrity
	// (CRC-32C trailers) and the store's own metadata, classifying
	// missing, corrupt and orphaned elements; with repair set it restores
	// agreement.
	Scrub(ctx context.Context, proc string, repair bool) (*ScrubReport, error)

	// Truncate drops checkpoints with seq < fullSeq — housekeeping after
	// a periodic full checkpoint bounds the restore chain.
	Truncate(ctx context.Context, proc string, fullSeq int) error

	// Target reports the destination's bandwidth/latency model, which the
	// recovery manager and the simulators use to cost transfers.
	Target() Target
}

// SeqGetter is an optional refinement of Store for reading part of a chain:
// what a replica set's read plan (FanOut.Read) asks of every replica but the
// first. Stores that do not implement it are read through ReadSeqs's
// Get-and-filter fallback.
type SeqGetter interface {
	// GetSeqs lists key's chain — every seq Get would report, stored or
	// missing, strictly ascending — and returns the bodies of only the
	// listed seqs in want, in sequence order; a wanted seq whose body is
	// unreadable comes back in missing. Wanted seqs the chain does not list,
	// and duplicates, are ignored; a nil want lists only.
	GetSeqs(ctx context.Context, key string, want []int) (listed []int, chain []Stored, missing []int, err error)
}

// Compile-time checks: the package's store satisfies the contract.
var (
	_ Store     = (*FSStore)(nil)
	_ SeqGetter = (*FSStore)(nil)
)
