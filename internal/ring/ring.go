// Package ring places (tenant, proc) checkpoint chains onto a peer ring
// with consistent hashing: each peer projects a fixed number of virtual
// nodes onto a 64-bit hash circle, a chain's replica set is the first N
// distinct peers clockwise from the chain key's point, and adding or
// removing one peer moves only the chains whose arcs it owned — the
// incremental-rebalance property that lets a fleet grow without
// reshuffling every tenant.
//
// Placement is a pure function of (peer set, vnode count, key): no clock,
// no RNG, no map-iteration order — two processes that agree on the member
// list compute identical replica sets, which is what lets every client
// route its own writes without a coordinator.
package ring

import (
	"fmt"
	"sort"
)

// DefaultVnodes is the virtual-node count per peer. 128 points per peer
// keeps the max/mean arc-ownership ratio near 1.2 for small rings while
// costing only 1 KiB of sorted points per peer.
const DefaultVnodes = 128

// fnv64a is FNV-1a over s, finished with a 64-bit avalanche mix —
// inlined rather than hash/fnv so the hot placement path allocates
// nothing. Raw FNV clusters badly on the short, similar strings peers and
// keys actually are ("10.0.0.3:4700#17"); the Murmur3-style finalizer
// spreads those clusters over the whole circle, which is what keeps
// per-peer arc ownership balanced.
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// point is one virtual node: a position on the hash circle owned by a peer.
type point struct {
	hash uint64
	peer string
}

// Ring is an immutable consistent-hash ring over a peer set. Build one
// with New; derive changed rings with Add/Remove. Immutability is what
// makes concurrent placement lock-free and rebalancing a pure diff
// between two rings.
type Ring struct {
	vnodes int
	peers  []string // sorted, unique
	points []point  // sorted by hash
}

// New builds a ring over peers with the given virtual-node count per peer
// (0 selects DefaultVnodes). Duplicate peers collapse; peer order is
// irrelevant to placement.
func New(peers []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	uniq := make([]string, 0, len(peers))
	seen := make(map[string]bool, len(peers))
	for _, p := range peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		uniq = append(uniq, p)
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, peers: uniq}
	r.points = make([]point, 0, len(uniq)*vnodes)
	for _, p := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: fnv64a(fmt.Sprintf("%s#%d", p, i)), peer: p})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].peer < r.points[j].peer // total order even on hash ties
	})
	return r
}

// Peers returns the ring's member list, sorted. The slice is shared; do
// not mutate.
func (r *Ring) Peers() []string { return r.peers }

// Add returns a new ring with peer joined (r unchanged).
func (r *Ring) Add(peer string) *Ring {
	return New(append(append([]string(nil), r.peers...), peer), r.vnodes)
}

// Remove returns a new ring with peer departed (r unchanged).
func (r *Ring) Remove(peer string) *Ring {
	keep := make([]string, 0, len(r.peers))
	for _, p := range r.peers {
		if p != peer {
			keep = append(keep, p)
		}
	}
	return New(keep, r.vnodes)
}

// Place returns the replica set for key: the first `replicas` distinct
// peers clockwise from the key's hash point. Fewer peers than replicas
// returns every peer (ordered by ring walk). The result is freshly
// allocated and deterministic for a given (peer set, vnodes, key).
func (r *Ring) Place(key string, replicas int) []string {
	if len(r.points) == 0 || replicas <= 0 {
		return nil
	}
	if replicas > len(r.peers) {
		replicas = len(r.peers)
	}
	h := fnv64a(key)
	i := sort.Search(len(r.points), func(j int) bool { return r.points[j].hash >= h })
	out := make([]string, 0, replicas)
	taken := make(map[string]bool, replicas)
	for n := 0; n < len(r.points) && len(out) < replicas; n++ {
		p := r.points[(i+n)%len(r.points)]
		if !taken[p.peer] {
			taken[p.peer] = true
			out = append(out, p.peer)
		}
	}
	return out
}

// Move is one chain relocation a membership change requires: the key must
// be established on each peer in Gained before it may be released from
// the peers in Lost.
type Move struct {
	Key    string
	Gained []string // peers that now own the key and may not hold it yet
	Lost   []string // peers that no longer own the key
}

// Diff computes the relocation plan for keys between two rings at a given
// replication factor: one Move per key whose replica set changed. Keys
// whose sets are unchanged produce nothing — the consistent-hash
// guarantee keeps that the vast majority on single-peer churn.
func Diff(old, next *Ring, keys []string, replicas int) []Move {
	var moves []Move
	for _, key := range keys {
		was := old.Place(key, replicas)
		now := next.Place(key, replicas)
		wasSet := make(map[string]bool, len(was))
		for _, p := range was {
			wasSet[p] = true
		}
		nowSet := make(map[string]bool, len(now))
		for _, p := range now {
			nowSet[p] = true
		}
		var m Move
		for _, p := range now {
			if !wasSet[p] {
				m.Gained = append(m.Gained, p)
			}
		}
		for _, p := range was {
			if !nowSet[p] {
				m.Lost = append(m.Lost, p)
			}
		}
		if len(m.Gained) > 0 || len(m.Lost) > 0 {
			m.Key = key
			moves = append(moves, m)
		}
	}
	return moves
}
