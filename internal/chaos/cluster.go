package chaos

import (
	"context"
	"fmt"
	"net"
	"time"

	"aic/internal/remote"
	"aic/internal/storage"
)

// peer is one in-process replication node: a durable FSStore fronted by a
// real TCP server speaking the replication wire protocol, plus the client
// (with its fault-injecting dialer) the harness's CheckpointDir fans out to.
// Killing a peer stops the server but leaves the store on disk — a node
// reboot, not a disk loss — so quorum-committed data stays durable.
type peer struct {
	idx    int
	ctx    context.Context // the run's root context, for the peer's server
	root   string
	store  *storage.FSStore
	addr   string
	srv    *remote.Server
	dialer *remote.FaultDialer
	client *remote.RemoteStore
	alive  bool
}

func newPeer(ctx context.Context, idx int, root string, seed uint64) (*peer, error) {
	st, err := storage.NewFSStore(root, storage.Target{Name: fmt.Sprintf("peer%d", idx)})
	if err != nil {
		return nil, err
	}
	p := &peer{ctx: ctx, idx: idx, root: root, store: st, dialer: &remote.FaultDialer{}}
	if err := p.start(""); err != nil {
		return nil, err
	}
	// Pinned backoff jitter keeps retry schedules replayable; the tight
	// backoff keeps loopback retries fast so a run stays in the seconds.
	jitter := int64(seed)*31 + int64(idx) + 1
	if jitter == 0 {
		jitter = 1
	}
	p.client = remote.NewStore(p.addr, remote.Config{
		DialTimeout: 2 * time.Second,
		OpTimeout:   20 * time.Second,
		Retries:     4,
		BackoffBase: time.Millisecond,
		BackoffMax:  8 * time.Millisecond,
		Dialer:      p.dialer,
		JitterSeed:  jitter,
	})
	return p, nil
}

// start listens and serves in the background — on addr when restarting a
// killed peer (clients keep dialing the original address), or on a fresh
// ephemeral port the first time.
func (p *peer) start(addr string) error {
	bind := addr
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	var (
		ln  net.Listener
		err error
	)
	for i := 0; i < 200; i++ { // a just-closed listener's port can linger briefly
		ln, err = net.Listen("tcp", bind)
		if err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("chaos: peer %d listen: %w", p.idx, err)
	}
	p.addr = ln.Addr().String()
	p.srv = remote.NewServer(p.store, remote.ServerConfig{})
	go p.srv.Serve(p.ctx, ln)
	p.alive = true
	return nil
}

// kill stops the server (listener and live connections); the store survives.
func (p *peer) kill() {
	if p.alive {
		p.srv.Close()
		p.alive = false
	}
}

// restart brings a killed peer back on its original address.
func (p *peer) restart() error {
	if p.alive {
		return nil
	}
	return p.start(p.addr)
}

// ckptFileName mirrors the FSStore layout (ckpt-%08d.aic under the proc
// directory); the bit-flip events corrupt files directly, beneath every
// integrity layer, so the harness needs raw paths.
func ckptFileName(seq int) string { return fmt.Sprintf("ckpt-%08d.aic", seq) }
