package storage

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

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

// JoinByPeer is the one-call-per-peer rule (DESIGN.md §15): calls 0..n-1
// grouped by peer name, each peer's in order on its own goroutine, all
// joined before it returns.
func JoinByPeer(n int, peer func(i int) string, call func(i int)) {
	var order []string
	shares := make(map[string][]int)
	for i := 0; i < n; i++ {
		p := peer(i)
		if shares[p] == nil {
			order = append(order, p)
		}
		shares[p] = append(shares[p], i)
	}
	JoinAll(len(order), func(s int) error {
		for _, i := range shares[order[s]] {
			call(i)
		}
		return nil
	})
}

// FanOut is the one replica-set fan-out both facades consume: placement (a
// fixed local + peers list, or a ring walk) produces the set, Run does the
// op on it; a caller that batches several sets' calls per peer, or settles
// one replica's outcome itself (the directory facade's local store), joins
// the calls with JoinByPeer and settles them with Tally. The zero value is
// ready to use and reports nothing.
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

// ReplicaChain is one replica's answer to a whole-chain Get. A non-nil Err
// is a replica that did not answer; it contributes nothing to a Union.
type ReplicaChain struct {
	Stored  []Stored // in sequence order
	Missing []int
	Err     error
}

// Fetch Gets key's whole chain from every replica concurrently, for a caller
// that needs every copy (the rebalancer's "replicas disagree" check); Read
// gives Union's answer while downloading each element once. The result is
// index-aligned to peers, so a merge over it stays deterministic; it fails
// only when no replica answered.
func (f *FanOut) Fetch(ctx context.Context, key string, names []string, peers []Store) ([]ReplicaChain, error) {
	chains := make([]ReplicaChain, len(peers))
	for i := range chains {
		chains[i].Err = errNoStore // stands for a replica Run never asks
	}
	answered, failed := f.Run(ctx, "get", 1, names, peers, func(ctx context.Context, i int, peer Store) error {
		c := &chains[i]
		c.Stored, c.Missing, c.Err = peer.Get(ctx, key)
		return c.Err
	})
	var n int
	for _, c := range chains {
		n += bodyBytes(c.Stored)
	}
	f.met.observeReadBytes("get", n)
	if answered == 0 {
		return nil, &QuorumError{Op: "get", Quorum: 1, Errs: failed}
	}
	return chains, nil
}

// Union merges fetched replica chains per sequence number: for every seq
// any answering replica lists — stored or missing — the first stored copy in
// replica order that admit accepts wins (nil admits every copy: a Store
// carries opaque bytes). merged is in sequence order, source[i] the replica
// merged[i] was read from, unreadable the seqs admitted nowhere.
func Union(chains []ReplicaChain, admit func(Stored) bool) (merged []Stored, source, unreadable []int) {
	won := make(map[int]winner)
	listed := make(map[int]bool)
	for r, c := range chains {
		if c.Err != nil {
			continue
		}
		for _, seq := range c.Missing {
			listed[seq] = true
		}
		for _, el := range c.Stored {
			listed[el.Seq] = true
			if _, ok := won[el.Seq]; !ok && (admit == nil || admit(el)) {
				won[el.Seq] = winner{el, r}
			}
		}
	}
	seqs := make([]int, 0, len(listed))
	for seq := range listed {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		if w, ok := won[seq]; ok {
			merged, source = append(merged, w.el), append(source, w.replica)
		} else {
			unreadable = append(unreadable, seq)
		}
	}
	return merged, source, unreadable
}

// List returns the sorted union of the chain names the peers hold, asking
// all of them concurrently. Like Fetch it fails only when no peer answered.
func (f *FanOut) List(ctx context.Context, names []string, peers []Store) ([]string, error) {
	lists := make([][]string, len(peers))
	answered, failed := f.Run(ctx, "list", 1, names, peers, func(ctx context.Context, i int, peer Store) error {
		held, err := peer.List(ctx)
		if err == nil {
			lists[i] = held
		}
		return err
	})
	if answered == 0 {
		return nil, &QuorumError{Op: "list", Quorum: 1, Errs: failed}
	}
	seen := map[string]bool{}
	for _, held := range lists {
		for _, name := range held {
			seen[name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
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
	if errors.Is(err, ErrStaleSeq) && HoldsIdentical(ctx, peer, proc, seq, data) {
		return nil
	}
	return err
}
