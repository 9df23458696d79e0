package storage

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// waitingCtx reports through waiting when a caller first selects on Done —
// for Put, the moment it starts waiting for its chain's token.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestPutCancelBeforeClaim pins the withdraw side of the cancellation
// contract: a Put cancelled while it is still waiting for its chain's token
// returns ctx.Err() while the token is still held elsewhere, and leaves no
// trace in the store.
func TestPutCancelBeforeClaim(t *testing.T) {
	fs := newFS(t)
	st := fs.state("p")

	// Hold the token so the Put has to wait for it.
	st.tok <- struct{}{}

	base, cancel := context.WithCancel(context.Background())
	ctx := &waitingCtx{Context: base, waiting: make(chan struct{})}
	errCh := make(chan error, 1)
	go func() { errCh <- fs.Put(ctx, "p", 0, []byte("doomed")) }()
	<-ctx.waiting

	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiting Put = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Put did not return while the token was held")
	}

	<-st.tok
	// The withdrawn seq was never stored: a fresh Put at the same seq
	// succeeds, which the strictly-increasing check would refuse had the
	// cancelled one committed.
	if err := fs.Put(context.Background(), "p", 0, []byte("fresh")); err != nil {
		t.Fatalf("seq 0 was stored despite withdrawal: %v", err)
	}
}

// TestPutCancelAfterClaim pins the other side: once a Put holds the token,
// cancellation is too late — the commit is in flight and the caller hears
// its real outcome (here a durable success), never ctx.Err().
func TestPutCancelAfterClaim(t *testing.T) {
	gate := &gateFS{FS: OSFS{}, entered: make(chan struct{}), release: make(chan struct{})}
	fs, err := NewFSStoreFS(t.TempDir(), Target{}, gate)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- fs.Put(ctx, "p", 0, []byte("committed")) }()
	<-gate.entered // the Put holds the token and is parked in its dir fsync

	// Cancel strictly after the claim, strictly before the outcome.
	cancel()
	select {
	case err := <-errCh:
		t.Fatalf("claimed Put returned %v before its commit resolved", err)
	case <-time.After(50 * time.Millisecond):
		// Still waiting on the commit — the contract in action.
	}

	close(gate.release)
	if err := <-errCh; err != nil {
		t.Fatalf("claimed Put must report the commit's real outcome (nil), got %v", err)
	}
	// And the data really is durable under the cancelled caller's seq: a
	// handle opened now reads it.
	reader, err := NewFSStore(fs.root, Target{})
	if err != nil {
		t.Fatal(err)
	}
	data, ok, err := reader.GetElem(context.Background(), "p", 0)
	if err != nil || !ok || string(data) != "committed" {
		t.Fatalf("committed element missing: %q ok=%v err=%v", data, ok, err)
	}
}
