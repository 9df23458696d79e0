package ring

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"aic/internal/metrics"
	"aic/internal/storage"
)

// Rebalancer migrates chains between peers after a ring membership
// change. The protocol per chain is merge → copy → verify → release: the
// chain's elements are merged across every replica holding any of them,
// each new-set peer is healed with what it is missing, and only when every
// merged element is verified byte-identical somewhere on the new set do
// the peers that lost ownership delete their copies. A committed (tenant,
// proc, seq) is therefore never dropped — a crash mid-rebalance leaves at
// worst an extra replica, never a missing one.
type Rebalancer struct {
	// Replicas is the replication factor placements are computed at.
	Replicas int
	// Store resolves a peer name to its store; nil marks the peer
	// unreachable (its copies are neither read nor released this round).
	Store func(peer string) storage.Store
	// Logf, when set, narrates chain migrations.
	Logf func(format string, args ...any)

	fan    storage.FanOut   // every replica-set read goes through it
	runs   *metrics.Counter // nil-safe when SetMetrics was not called
	moves  *metrics.Counter
	copied *metrics.Counter
}

// Report summarizes one rebalance round.
type Report struct {
	Keys        int      // chains examined
	Moves       int      // chains whose replica set changed
	CopiedBytes int64    // bytes streamed to gaining peers
	Released    int      // copies deleted from losing peers
	Deferred    []string // keys left over-replicated (verify or release failed)
}

// SetMetrics instruments the rebalancer against reg.
func (rb *Rebalancer) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	rb.fan.SetMetrics(reg)
	rb.runs = reg.Counter("aic_ring_rebalance_total",
		"Completed ring rebalance rounds.")
	rb.moves = reg.Counter("aic_ring_chain_moves_total",
		"Chains copied to a gaining peer during rebalances.")
	rb.copied = reg.Counter("aic_ring_copy_bytes_total",
		"Checkpoint bytes streamed to gaining peers during rebalances.")
}

func (rb *Rebalancer) logf(format string, args ...any) {
	if rb.Logf != nil {
		rb.Logf(format, args...)
	}
}

// Rebalance migrates every chain whose replica set differs between old
// and next. Chains it cannot fully establish on the new set are left
// over-replicated and reported in Deferred — the next round retries them;
// under-replication is never introduced. The error is non-nil only when
// chain discovery itself failed.
func (rb *Rebalancer) Rebalance(ctx context.Context, old, next *Ring) (*Report, error) {
	keys, err := rb.discover(ctx, old, next)
	if err != nil {
		return nil, err
	}
	rep := &Report{Keys: len(keys)}
	for _, m := range Diff(old, next, keys, rb.Replicas) {
		rep.Moves++
		if err := rb.moveChain(ctx, next, m, rep); err != nil {
			rb.logf("ring: rebalance %s deferred: %v", m.Key, err)
			rep.Deferred = append(rep.Deferred, m.Key)
		}
	}
	rb.runs.Inc()
	return rep, nil
}

// discover lists every chain on every reachable peer of both rings.
func (rb *Rebalancer) discover(ctx context.Context, old, next *Ring) ([]string, error) {
	var peers []string
	seen := map[string]bool{}
	for _, p := range append(append([]string(nil), old.Peers()...), next.Peers()...) {
		if !seen[p] {
			seen[p] = true
			peers = append(peers, p)
		}
	}
	keys, err := rb.fan.List(ctx, peers, rb.stores(peers))
	if err != nil {
		return nil, fmt.Errorf("ring: no reachable peers to rebalance: %w", err)
	}
	return keys, nil
}

// moveChain executes one Move: merge the chain's committed elements across
// every replica that holds any of them, copy what each new-set peer is
// missing, verify every element is covered by the new set, then release
// the losing peers' copies.
func (rb *Rebalancer) moveChain(ctx context.Context, next *Ring, m Move, rep *Report) error {
	// Copies of committed chains are migration traffic: quota admission on
	// the gaining peer must not refuse them, or a tenant near its quota
	// could never re-converge after a membership change (the data was
	// admitted when first written; the loser's release returns the bytes).
	ctx = storage.WithMigration(ctx)
	newSet := next.Place(m.Key, rb.Replicas)
	newStores := rb.stores(newSet)
	chain, held, err := rb.mergedChain(ctx, m, newSet)
	if err != nil {
		return err
	}
	if len(chain) == 0 {
		// Nothing committed under this key survives anywhere reachable;
		// there is nothing to move, and nothing to release safely.
		return fmt.Errorf("no readable replica of %s", m.Key)
	}
	gained := make(map[string]bool, len(m.Gained))
	for _, p := range m.Gained {
		gained[p] = true
	}
	// Copy to every new-set peer missing elements, not just the gaining
	// ones: a peer that kept its placement across an outage lacks the
	// committed tail written while it was down, and releasing the losers
	// without healing that hole could leave elements under-replicated.
	// What the merge saw a peer hold is not sent again: agreed proved those
	// bytes equal to the merged copy, and verify below re-reads them.
	// Stores append chains in sequence order, so a peer whose copy has an
	// interior hole cannot be back-filled (the Put is stale to it) — such
	// elements survive on the rest of the set, which verify checks below.
	for i, peer := range newSet {
		st := newStores[i]
		if st == nil {
			return fmt.Errorf("new-set peer %s unreachable", peer)
		}
		var copied int64
		for _, el := range chain {
			if held[i][el.Seq] {
				continue
			}
			err := st.Put(ctx, m.Key, el.Seq, el.Data)
			if errors.Is(err, storage.ErrStaleSeq) {
				continue // already holds this prefix (or cannot back-fill it)
			}
			if err != nil {
				return fmt.Errorf("copy %s to %s: %w", m.Key, peer, err)
			}
			copied += int64(len(el.Data))
		}
		if copied == 0 && !gained[peer] {
			continue
		}
		if gained[peer] {
			rb.moves.Inc()
		}
		rb.copied.Add(float64(copied))
		rep.CopiedBytes += copied
		rb.logf("ring: copied %s →%s (%d bytes)", m.Key, peer, copied)
	}
	// Verify before releasing anything: every new-set peer answers, no two
	// of them hold conflicting copies, and every merged element is held
	// byte-identically by at least one of them.
	have, err := rb.fan.Fetch(ctx, m.Key, newSet, newStores)
	if err != nil {
		return fmt.Errorf("verify %s: %w", m.Key, err)
	}
	for i, replica := range have {
		if replica.Err != nil {
			return fmt.Errorf("verify %s on %s: %w", m.Key, newSet[i], replica.Err)
		}
	}
	placed, err := agreed(m.Key, have)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	for _, el := range chain {
		if data, ok := placed[el.Seq]; !ok || !bytes.Equal(data, el.Data) {
			return fmt.Errorf("verify %s: seq %d not placed intact on the new set", m.Key, el.Seq)
		}
	}
	for _, peer := range m.Lost {
		st := rb.Store(peer)
		if st == nil {
			continue // unreachable loser keeps a stale extra copy; harmless
		}
		if err := st.Delete(ctx, m.Key); err != nil {
			return fmt.Errorf("release %s from %s: %w", m.Key, peer, err)
		}
		rep.Released++
		rb.logf("ring: released %s from %s", m.Key, peer)
	}
	return nil
}

// stores resolves peer names to their stores (nil = unreachable),
// index-aligned: the shape a fan-out runs over.
func (rb *Rebalancer) stores(peers []string) []storage.Store {
	out := make([]storage.Store, len(peers))
	for i, p := range peers {
		out[i] = rb.Store(p)
	}
	return out
}

// agreed maps every seq the answering replicas store to its bytes, and fails
// when two of them hold different bytes at one seq.
func agreed(key string, chains []storage.ReplicaChain) (map[int][]byte, error) {
	held := map[int][]byte{}
	for _, replica := range chains {
		if replica.Err != nil {
			continue
		}
		for _, el := range replica.Stored {
			if prior, ok := held[el.Seq]; !ok {
				held[el.Seq] = el.Data
			} else if !bytes.Equal(prior, el.Data) {
				return nil, fmt.Errorf("replicas of %s disagree at seq %d", key, el.Seq)
			}
		}
	}
	return held, nil
}

// mergedChain unions the chain's elements across every reachable peer that
// may hold any of them — the new replica set and the losers — with the same
// fetch and per-seq union every restore reads through. Merging, rather than
// electing one source replica, is what preserves elements a partial outage
// or partial admission left on only some replicas: a single replica's copy
// can have holes another replica fills. The rebalancer moves opaque bytes,
// so the union admits every copy — and the move is deferred first when two
// replicas hold different bytes at one sequence (no safe choice exists).
// held[i] is the seqs new-set peer i answered the fetch with.
func (rb *Rebalancer) mergedChain(ctx context.Context, m Move, newSet []string) (merged []storage.Stored, held []map[int]bool, err error) {
	candidates := append(append([]string(nil), newSet...), m.Lost...) // disjoint by definition
	chains, err := rb.fan.Fetch(ctx, m.Key, candidates, rb.stores(candidates))
	if err != nil {
		return nil, nil, err
	}
	if _, err := agreed(m.Key, chains); err != nil {
		return nil, nil, err
	}
	held = make([]map[int]bool, len(newSet))
	for i, replica := range chains[:len(newSet)] {
		held[i] = make(map[int]bool, len(replica.Stored))
		for _, el := range replica.Stored {
			held[i][el.Seq] = true
		}
	}
	merged, _, _ = storage.Union(chains, nil)
	return merged, held, nil
}
