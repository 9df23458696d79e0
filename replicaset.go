package aic

import (
	"context"
	"errors"
	"fmt"

	"aic/internal/recovery"
	"aic/internal/remote"
	"aic/internal/storage"
)

// replicaSet is the replica-set write core both facades hold (DESIGN.md
// §15): the peers it dialed, the quorum rule, the batched apply, and the
// one verdict that settles a write. Placement stays with the facade:
// CheckpointDir's fixed [local, peers…], or Client's ring walk.
type replicaSet struct {
	// mustAck makes each placement's first replica the must-ack member
	// (CheckpointDir's local store): its own outcome decides the write, and
	// only the rest count toward quorum.
	mustAck bool
	quorum  int            // peer acks a write needs; 0 selects a majority
	env     remote.Config  // every dialed peer's envelope, before its jitter offset
	fan     storage.FanOut // counts every fan-out; the facades read through it too

	// remotes are the peers dial made, by name; dialed counts every dial
	// over the set's lifetime. Callers serialize dial, hangUp and close.
	remotes map[string]*remote.RemoteStore
	dialed  int
}

// newReplicaSet builds the write core. A quorum above size, the peer count
// a write is placed on, is rejected: the set would ack with fewer peers
// than were asked for.
func newReplicaSet(mustAck bool, quorum, size int, env remote.Config) (*replicaSet, error) {
	if quorum > size {
		return nil, fmt.Errorf("quorum %d exceeds %d peers", quorum, size)
	}
	s := &replicaSet{mustAck: mustAck, quorum: quorum, env: env, remotes: make(map[string]*remote.RemoteStore)}
	s.fan.SetMetrics(env.Metrics)
	return s, nil
}

// need is the quorum rule for a write placed on n peers: the configured
// quorum, or a majority of n. A ring smaller than Replicas places fewer
// peers and clamps the quorum to them.
func (s *replicaSet) need(n int) int {
	if s.quorum <= 0 {
		return n/2 + 1
	}
	return min(s.quorum, n)
}

// dial creates addr's peer client and owns it under name.
func (s *replicaSet) dial(name, addr string) storage.Store {
	rs := remote.NewStore(addr, peerConfig(s.env, s.dialed))
	s.dialed++
	s.remotes[name] = rs
	return rs
}

// peerConfig is the remote.Config of the n-th peer a facade dials (n counts
// from 0 over the facade's lifetime, later joins included). A zero
// JitterSeed keeps wall-clock jitter; any other seed is offset by n, so no
// two peers of one facade share a retry schedule.
func peerConfig(env remote.Config, n int) remote.Config {
	if env.JitterSeed != 0 {
		env.JitterSeed += int64(n)
	}
	return env
}

// hangUp closes the peer dialed under name, if any.
func (s *replicaSet) hangUp(name string) {
	if rs, ok := s.remotes[name]; ok {
		rs.Close()
		delete(s.remotes, name)
	}
}

// close closes every dialed peer and returns the first error.
func (s *replicaSet) close() error {
	var first error
	for _, rs := range s.remotes {
		if err := rs.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// restore is the replica-set restore both facades serve (DESIGN.md §15):
// key's replicas, as place names them, read through the set's fan-out.
func (s *replicaSet) restore(ctx context.Context, key string, place func(string) ([]string, []storage.Store, error)) (*Image, *RestoreReport, error) {
	as, rep, err := recovery.ReplicaSet{Fan: &s.fan, Place: place}.Restore(ctx, key)
	if err != nil {
		return nil, nil, fmt.Errorf("aic: %w", err)
	}
	return &Image{as: as}, goodReportToRestore(rep), nil
}

// write is one element of a batch: do runs it on one replica of its
// placement (names, stores), or err is why placement found none, and is
// the write's verdict. key and seq label a quorum-miss error.
type write struct {
	key    string
	seq    int
	names  []string
	stores []storage.Store
	err    error
	do     func(ctx context.Context, st storage.Store) error
}

// apply runs a batch of writes on every replica of their placements, each
// peer's share in batch order on its own goroutine (storage.JoinByPeer),
// and returns one verdict per write once every call has returned. op names
// the writes in a DegradedError, fanOp in the fan-out counters.
func (s *replicaSet) apply(ctx context.Context, op, fanOp string, writes []write) []error {
	type call struct{ w, r int }
	var calls []call
	outcomes := make([][]error, len(writes))
	for w := range writes {
		outcomes[w] = make([]error, len(writes[w].stores))
		for r := range writes[w].stores {
			calls = append(calls, call{w, r})
		}
	}
	storage.JoinByPeer(len(calls), func(i int) string { return writes[calls[i].w].names[calls[i].r] }, func(i int) {
		w, r := calls[i].w, calls[i].r
		outcomes[w][r] = writes[w].do(ctx, writes[w].stores[r])
	})
	verdicts := make([]error, len(writes))
	for w := range writes {
		verdicts[w] = s.verdict(op, fanOp, writes[w], outcomes[w])
	}
	return verdicts
}

// verdict settles one write; it is the only place a quorum-miss or
// degraded error is built. With a must-ack member, its error comes back
// unwrapped, peers short of quorum give a DegradedError over a
// QuorumError, and a straggler while quorum holds is no error. Without
// one, a quorum miss gives ErrNoQuorum wrapping every peer's cause (the
// element is not committed), and a straggler while quorum holds a
// DegradedError.
func (s *replicaSet) verdict(op, fanOp string, w write, outcomes []error) error {
	if w.err != nil {
		return w.err
	}
	names := w.names
	var local error
	if s.mustAck {
		local, names, outcomes = outcomes[0], names[1:], outcomes[1:]
		if len(outcomes) == 0 {
			return local
		}
	}
	need := s.need(len(outcomes))
	acked, failed := s.fan.Tally(fanOp, need, names, outcomes)
	switch {
	case s.mustAck && (local != nil || acked >= need):
		return local
	case s.mustAck:
		return &DegradedError{Op: op, Err: &storage.QuorumError{Op: fanOp, Acked: acked, Quorum: need, Errs: failed}}
	case acked < need:
		return fmt.Errorf("%w: %d of %d acks (need %d) for %s seq %d: %w",
			ErrNoQuorum, acked, len(outcomes), need, w.key, w.seq, errors.Join(failed...))
	case len(failed) > 0:
		return &DegradedError{Op: op, Err: errors.Join(failed...)}
	}
	return nil
}
