package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ReplicatedStore fans every mutation out to N peer stores concurrently and
// acknowledges once a quorum of them has — the paper's L2 RAID-5 peer-node
// group generalized to any Store implementations (typically RemoteStores
// speaking the replication protocol, but any mix works). Reads pick the
// best surviving replica. A peer that stays dark does not block the quorum:
// the fan-out degrades gracefully as long as Quorum peers still answer.
type ReplicatedStore struct {
	peers  []Store
	names  []string // "0", "1", …: how a fan-out labels each peer's failure
	quorum int
	fan    FanOut
}

// NewReplicatedStore builds a quorum store over the peers. quorum ≤ 0
// selects a majority (len(peers)/2 + 1).
func NewReplicatedStore(quorum int, peers ...Store) (*ReplicatedStore, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("storage: replicated store needs at least one peer")
	}
	if quorum <= 0 {
		quorum = len(peers)/2 + 1
	}
	if quorum > len(peers) {
		return nil, fmt.Errorf("storage: quorum %d exceeds %d peers", quorum, len(peers))
	}
	names := make([]string, len(peers))
	for i := range names {
		names[i] = strconv.Itoa(i)
	}
	return &ReplicatedStore{peers: append([]Store(nil), peers...), names: names, quorum: quorum}, nil
}

// Peers returns the underlying stores (shared, not copies) — recovery walks
// them individually to restore from the best surviving replica.
func (r *ReplicatedStore) Peers() []Store { return append([]Store(nil), r.peers...) }

// Quorum returns the acknowledgement threshold.
func (r *ReplicatedStore) Quorum() int { return r.quorum }

// Target returns the first peer's bandwidth model.
func (r *ReplicatedStore) Target() Target { return r.peers[0].Target() }

// QuorumError reports a fan-out that fewer than Quorum peers acknowledged.
// The per-peer failures are wrapped, so errors.Is sees through to causes
// like remote.ErrPeerDark.
type QuorumError struct {
	Op     string
	Acked  int
	Quorum int
	Errs   []error // one per failed peer, labelled
}

// Error summarizes the failed fan-out.
func (e *QuorumError) Error() string {
	msgs := make([]string, len(e.Errs))
	for i, err := range e.Errs {
		msgs[i] = err.Error()
	}
	return fmt.Sprintf("storage: %s acked by %d/%d peers (quorum %d): %s",
		e.Op, e.Acked, e.Acked+len(e.Errs), e.Quorum, strings.Join(msgs, "; "))
}

// Unwrap exposes the per-peer errors to errors.Is/As.
func (e *QuorumError) Unwrap() []error { return e.Errs }

// errNoStore is the outcome of a replica that placement names but no store
// backs: it fails its share of a fan-out without being called.
var errNoStore = errors.New("no store")

// JoinAll runs op(0..n-1) concurrently and returns only after every call
// has returned, so nothing it started outlives it; errs[i] is op(i)'s result.
func JoinAll(n int, op func(i int) error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = op(i)
		}(i)
	}
	wg.Wait()
	return errs
}

// FanOut is the one replica-set fan-out both facades consume: placement (a
// fixed peer list, or a ring walk) produces the set, Run does the op on it;
// a caller that batches several sets' calls per peer joins them with JoinAll
// and settles each set with Tally. The zero value is ready to use and
// reports nothing.
type FanOut struct {
	met *replMetrics // nil unless SetMetrics instrumented the fan-out
}

// Run runs op on every replica concurrently and joins all of them before
// returning — no goroutine, Put or byte on disk outlives the call, so a
// caller's counts are exact the moment it is acked — then closes the account
// with Tally. A nil peer fails without running op.
func (f *FanOut) Run(ctx context.Context, name string, quorum int, names []string, peers []Store, op func(ctx context.Context, i int, peer Store) error) (acked int, failed []error) {
	return f.Tally(name, quorum, names, JoinAll(len(peers), func(i int) error {
		if peers[i] == nil {
			return errNoStore
		}
		return op(ctx, i, peers[i])
	}))
}

// Tally closes one fan-out's account from its per-replica outcomes (nil =
// ack): how many replicas acked, and the failures in replica order, each
// labelled with its peer's name. It counts the fan-out under name against
// quorum.
func (f *FanOut) Tally(name string, quorum int, names []string, outcomes []error) (acked int, failed []error) {
	for i, err := range outcomes {
		if err != nil {
			failed = append(failed, fmt.Errorf("peer %s: %w", names[i], err))
		}
	}
	acked = len(outcomes) - len(failed)
	f.met.observeFanOut(name, acked, len(outcomes), quorum)
	return acked, failed
}

// fanOut runs op against every peer concurrently and returns nil once at
// least quorum succeeded.
func (r *ReplicatedStore) fanOut(ctx context.Context, name string, op func(ctx context.Context, i int, peer Store) error) error {
	acked, failed := r.fan.Run(ctx, name, r.quorum, r.names, r.peers, op)
	if acked >= r.quorum {
		return nil
	}
	return &QuorumError{Op: name, Acked: acked, Quorum: r.quorum, Errs: failed}
}

// Put replicates the checkpoint to every peer, acknowledging on quorum.
func (r *ReplicatedStore) Put(ctx context.Context, proc string, seq int, data []byte) error {
	return r.fanOut(ctx, "put", func(ctx context.Context, _ int, peer Store) error {
		return PutVerified(ctx, peer, proc, seq, data)
	})
}

// PutVerified is one replica's share of a fanned-out Put. A peer rejecting
// the Put with ErrStaleSeq counts as an ack only when it verifiably holds
// identical bytes at that sequence (a retry after a lost ack); a stale-seq
// from a diverged chain — same seq with different content, or a higher last
// seq after the chain restarted elsewhere — is a failure, because the peer
// did not store the checkpoint.
func PutVerified(ctx context.Context, peer Store, proc string, seq int, data []byte) error {
	if peer == nil {
		return errNoStore
	}
	err := peer.Put(ctx, proc, seq, data)
	if errors.Is(err, ErrStaleSeq) && holdsIdentical(ctx, peer, proc, seq, data) {
		return nil
	}
	return err
}

// holdsIdentical reports whether the peer's stored chain contains exactly
// (proc, seq, data). It backs the stale-seq-as-ack decision, so it must
// never report true on a read failure.
func holdsIdentical(ctx context.Context, peer Store, proc string, seq int, data []byte) bool {
	if eg, ok := peer.(ElemGetter); ok {
		stored, found, err := eg.GetElem(ctx, proc, seq)
		return err == nil && found && bytes.Equal(stored, data)
	}
	chain, _, err := peer.Get(ctx, proc)
	if err != nil {
		return false
	}
	for _, el := range chain {
		if el.Seq == seq {
			return bytes.Equal(el.Data, data)
		}
	}
	return false
}

// Delete removes proc's chain from every peer, acknowledging on quorum.
func (r *ReplicatedStore) Delete(ctx context.Context, proc string) error {
	return r.fanOut(ctx, "delete", func(ctx context.Context, _ int, peer Store) error {
		return peer.Delete(ctx, proc)
	})
}

// Truncate applies the housekeeping cut on every peer, acknowledging on
// quorum.
func (r *ReplicatedStore) Truncate(ctx context.Context, proc string, fullSeq int) error {
	return r.fanOut(ctx, "truncate", func(ctx context.Context, _ int, peer Store) error {
		return peer.Truncate(ctx, proc, fullSeq)
	})
}

// Get returns the chain of the best surviving replica: the peer whose
// readable chain reaches the highest sequence number, with the longest
// chain breaking ties. Peers that cannot answer are skipped; Get fails only
// when no peer answers at all.
func (r *ReplicatedStore) Get(ctx context.Context, proc string) ([]Stored, []int, error) {
	var (
		bestChain   []Stored
		bestMissing []int
		answered    bool
		errs        []error
	)
	for i, peer := range r.peers {
		chain, missing, err := peer.Get(ctx, proc)
		if err != nil {
			errs = append(errs, fmt.Errorf("peer %d: %w", i, err))
			continue
		}
		if !answered || betterChain(chain, bestChain) {
			bestChain, bestMissing = chain, missing
		}
		answered = true
	}
	if !answered {
		return nil, nil, &QuorumError{Op: "get", Acked: 0, Quorum: 1, Errs: errs}
	}
	return bestChain, bestMissing, nil
}

// betterChain prefers the higher last sequence number, then the longer
// chain.
func betterChain(a, b []Stored) bool {
	lastSeq := func(c []Stored) int {
		if len(c) == 0 {
			return -1 << 62
		}
		return c[len(c)-1].Seq
	}
	if la, lb := lastSeq(a), lastSeq(b); la != lb {
		return la > lb
	}
	return len(a) > len(b)
}

// List returns the union of process names across the answering peers.
func (r *ReplicatedStore) List(ctx context.Context) ([]string, error) {
	seen := map[string]bool{}
	var answered bool
	var errs []error
	for i, peer := range r.peers {
		procs, err := peer.List(ctx)
		if err != nil {
			errs = append(errs, fmt.Errorf("peer %d: %w", i, err))
			continue
		}
		answered = true
		for _, p := range procs {
			seen[p] = true
		}
	}
	if !answered {
		return nil, &QuorumError{Op: "list", Acked: 0, Quorum: 1, Errs: errs}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}

// Scrub scrubs every answering peer and merges the findings into one
// report (seq lists are unions; Repaired is set when any peer repaired).
func (r *ReplicatedStore) Scrub(ctx context.Context, proc string, repair bool) (*ScrubReport, error) {
	merged := &ScrubReport{Proc: proc}
	var answered bool
	var errs []error
	for i, peer := range r.peers {
		rep, err := peer.Scrub(ctx, proc, repair)
		if err != nil {
			errs = append(errs, fmt.Errorf("peer %d: %w", i, err))
			continue
		}
		answered = true
		merged.ManifestRebuilt = merged.ManifestRebuilt || rep.ManifestRebuilt
		merged.Missing = append(merged.Missing, rep.Missing...)
		merged.Corrupt = append(merged.Corrupt, rep.Corrupt...)
		merged.Orphaned = append(merged.Orphaned, rep.Orphaned...)
		merged.Adopted = append(merged.Adopted, rep.Adopted...)
		merged.SizeFixed = append(merged.SizeFixed, rep.SizeFixed...)
		merged.StrayRemoved = append(merged.StrayRemoved, rep.StrayRemoved...)
		merged.Unknown = append(merged.Unknown, rep.Unknown...)
		merged.Repaired = merged.Repaired || rep.Repaired
	}
	if !answered {
		return nil, &QuorumError{Op: "scrub", Acked: 0, Quorum: 1, Errs: errs}
	}
	return merged, nil
}
