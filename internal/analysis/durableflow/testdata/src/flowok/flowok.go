// Package flowok is the clean durableflow fixture: acks dominated by the
// durable sequence, failure sends that are not acks, a closure's return
// that is not Put's ack, and deferred work correctly ignored.
package flowok

// FS carries the durability primitives.
type FS interface {
	SyncFile(name string) error
	SyncDir(name string) error
	Rename(oldpath, newpath string) error
}

// Store is the checkpoint-store contract.
type Store interface {
	Put(p string, b []byte) error
}

// Group batches commits through a done channel per request.
type Group struct {
	fs FS
}

type req struct {
	p    string
	b    []byte
	done chan error
}

// Put stages every request, pins the directory once, then acks each
// request — the coalesced commit discipline.
func (g *Group) Put(p string, b []byte) error {
	r := &req{p: p, b: b, done: make(chan error, 1)}
	g.commit([]*req{r})
	return <-r.done
}

func (g *Group) commit(reqs []*req) {
	var staged []*req
	for _, r := range reqs {
		if err := g.stage(r.p, r.b); err != nil {
			// A failure send is not an ack: it vouches for nothing.
			r.done <- err
			continue
		}
		staged = append(staged, r)
	}
	if err := g.fs.SyncDir("."); err != nil {
		for _, r := range staged {
			r.done <- err
		}
		return
	}
	for _, r := range staged {
		r.done <- nil
	}
}

// stage carries fsync+rename; the dir-fsync is the caller's.
func (g *Group) stage(p string, b []byte) error {
	if err := g.fs.SyncFile(p + ".tmp"); err != nil {
		return err
	}
	return g.fs.Rename(p+".tmp", p)
}

// Solo commits one element per Put: its only `return nil` follows the
// durable sequence.
type Solo struct {
	fs FS
}

// Put stages through a closure whose own `return nil` precedes the
// directory fsync — the closure's result, not Put's ack.
func (s *Solo) Put(p string, b []byte) error {
	stage := func() error {
		if err := s.fs.SyncFile(p + ".tmp"); err != nil {
			return err
		}
		if err := s.fs.Rename(p+".tmp", p); err != nil {
			return err
		}
		return nil
	}
	if err := stage(); err != nil {
		return err
	}
	if err := s.fs.SyncDir("."); err != nil {
		return err
	}
	return nil
}
