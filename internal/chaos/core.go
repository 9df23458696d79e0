package chaos

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"aic/internal/memsim"
	"aic/internal/remote"
	"aic/internal/storage"
)

// The core every scenario runs on: one replication node, one client dial,
// one run log and one acked-state ledger. A scenario keeps only its own
// schedule and its own invariants.

// node is one in-process replication peer: a durable FSStore served over
// the real TCP wire protocol. Killing a node stops its server but leaves
// the store on disk — a reboot, not a disk loss — so what it acked stays
// durable; restart rebinds the original address, which its client keeps
// dialing.
type node struct {
	ctx    context.Context // the run's root context, for the node's server
	name   string
	root   string        // the FSStore's directory, for faults beneath it
	served storage.Store // the FSStore, or the wrapper over it the server serves
	addr   string
	srv    *remote.Server
	alive  bool
	client *remote.RemoteStore // set by dial
}

// startNode opens an FSStore at root and serves it on a fresh loopback
// port. serve, when not nil, wraps the store before the server gets it.
func startNode(ctx context.Context, name, root string, serve func(*storage.FSStore) storage.Store) (*node, error) {
	fs, err := storage.NewFSStore(root, storage.Target{Name: name})
	if err != nil {
		return nil, err
	}
	n := &node{ctx: ctx, name: name, root: root, served: fs}
	if serve != nil {
		n.served = serve(fs)
	}
	return n, n.listen("127.0.0.1:0")
}

func (n *node) listen(bind string) error {
	var (
		ln  net.Listener
		err error
	)
	for i := 0; i < 200; i++ { // a just-closed listener's port can linger briefly
		if ln, err = net.Listen("tcp", bind); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("chaos: %s listen: %w", n.name, err)
	}
	n.addr = ln.Addr().String()
	n.srv = remote.NewServer(n.served, remote.ServerConfig{})
	go n.srv.Serve(n.ctx, ln)
	n.alive = true
	return nil
}

// kill stops the server (listener and live connections); the store survives.
func (n *node) kill() {
	if n.alive {
		n.srv.Close()
		n.alive = false
	}
}

// restart brings a killed node back on its original address.
func (n *node) restart() error {
	if n.alive {
		return nil
	}
	return n.listen(n.addr)
}

// dial gives the node its client under env, the scenario's remote envelope
// (retries, dialer, jitter seed). The timeouts and the tight backoff every
// scenario shares keep loopback retries fast, so a run stays in the
// seconds; a pinned, never-zero jitter seed keeps retry schedules
// replayable.
func (n *node) dial(env remote.Config) *remote.RemoteStore {
	env.DialTimeout, env.OpTimeout = 2*time.Second, 20*time.Second
	env.BackoffBase, env.BackoffMax = time.Millisecond, 8*time.Millisecond
	if env.JitterSeed == 0 {
		env.JitterSeed = 1
	}
	n.client = remote.NewStore(n.addr, env)
	return n.client
}

// close closes the node's client and stops its server.
func (n *node) close() {
	if n.client != nil {
		n.client.Close()
	}
	n.kill()
}

// flipStored flips one bit of the file holding seq of proc's chain in the
// FSStore rooted at root, beneath every integrity layer; at picks the byte
// from the file's size. ok is false when no non-empty file holds seq.
func flipStored(root, proc string, seq int, at func(size int) int, bit uint) (off int, ok bool, err error) {
	path := storage.ElemPath(root, proc, seq)
	fi, err := os.Stat(path)
	if err != nil || fi.Size() == 0 {
		return 0, false, nil
	}
	off = at(int(fi.Size()))
	return off, true, storage.FlipBit(path, off, bit)
}

// Violation is one failed invariant.
type Violation struct {
	Step      int    // the scenario's step, round or phase; 0 where it has none
	Invariant string // short invariant name, stable across runs
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("step=%d invariant=%s: %s", v.Step, v.Invariant, v.Detail)
}

// RunLog is one scenario run's record: its transcript and its typed
// invariant violations. It is safe for concurrent use, and streams every
// line to an optional live sink as it is logged.
type RunLog struct {
	Transcript []string
	Violations []Violation

	mu     sync.Mutex
	name   string        // the scenario, for the failure report
	at     string        // " at seed=S" for a seeded scenario
	sink   io.Writer     // optional live transcript sink
	prefix func() string // optional per-line prefix
}

// Failed reports whether any invariant was violated.
func (l *RunLog) Failed() bool { return len(l.Violations) > 0 }

// FailureReport renders the violations under a header naming the scenario
// and, for a seeded one, the seed that replays them.
func (l *RunLog) FailureReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d invariant violation(s)%s\n", l.name, len(l.Violations), l.at)
	for _, v := range l.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return b.String()
}

func (l *RunLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.add(fmt.Sprintf(format, args...))
}

// violate records a violation of invariant at step and logs it.
func (l *RunLog) violate(step int, invariant, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v := Violation{Step: step, Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
	l.Violations = append(l.Violations, v)
	l.add("VIOLATION " + invariant + ": " + v.Detail)
}

// add appends one transcript line. Caller holds l.mu.
func (l *RunLog) add(line string) {
	if l.prefix != nil {
		line = l.prefix() + line
	}
	l.Transcript = append(l.Transcript, line)
	if l.sink != nil {
		fmt.Fprintln(l.sink, line)
	}
}

// ledger is one chain's acked state: for every seq a restore may still
// land on, the exact image and CPU state it must restore to. A seq is
// recorded before it is appended — a restore may land on it the instant a
// store acks it, or on the peers of an append that crashed locally. It is
// safe for concurrent use.
type ledger struct {
	proc     string
	mu       sync.Mutex
	acked    map[int]ackedState
	last     int // newest recorded seq (-1 none)
	lastFull int // newest recorded full checkpoint (-1 none)
}

type ackedState struct {
	image *memsim.AddressSpace // a clone nothing writes again
	cpu   []byte
}

func newLedger(proc string) *ledger {
	return &ledger{proc: proc, acked: map[int]ackedState{}, last: -1, lastFull: -1}
}

func (l *ledger) record(seq int, image *memsim.AddressSpace, cpu []byte, full bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.acked[seq] = ackedState{image: image, cpu: cpu}
	l.last = seq
	if full {
		l.lastFull = seq
	}
}

// newest returns the newest recorded seq with its state, and the newest
// recorded full.
func (l *ledger) newest() (seq, fullSeq int, st ackedState) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last, l.lastFull, l.acked[l.last]
}

// prune drops every seq below floor, the restore floor: no restore may
// land below it any more.
func (l *ledger) prune(floor int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for seq := range l.acked {
		if seq < floor {
			delete(l.acked, seq)
		}
	}
}

// check is the one restore check: a restore that landed on seq must give
// back exactly the image (image-mismatch) and the CPU state (cpu-state)
// recorded there.
func (l *ledger) check(log *RunLog, step, seq int, image *memsim.AddressSpace, cpu []byte) {
	l.mu.Lock()
	want, ok := l.acked[seq]
	l.mu.Unlock()
	if !ok {
		log.violate(step, "image-mismatch", "%s: restore landed on seq %d, which was never recorded", l.proc, seq)
		return
	}
	if !image.Equal(want.image) {
		log.violate(step, "image-mismatch", "%s: seq %d restored to a different image than was recorded", l.proc, seq)
	}
	if !bytes.Equal(cpu, want.cpu) {
		log.violate(step, "cpu-state", "%s: seq %d restored different CPU state than was recorded", l.proc, seq)
	}
}
