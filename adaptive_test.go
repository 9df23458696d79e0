package aic

import (
	"context"
	"testing"

	"aic/internal/storage"
)

// TestCheckpointDirNormalLevelReadings pins the reading of a directory
// whose ladder sits at ControlNormal, with and without a controller:
// replication on, and an Append that reaches the peer.
func TestCheckpointDirNormalLevelReadings(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"no-controller", nil},
		{"level-normal", []Option{WithAdaptiveControl(AdaptiveControlConfig{})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peer := storage.NewMemStore(storage.Target{Name: "peer"})
			d, err := OpenCheckpointDir("", append([]Option{
				WithStore(storage.NewMemStore(storage.Target{Name: "local"})),
				WithReplication(Replication{Stores: []Store{peer}, Quorum: 1}),
			}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if ctrl := d.Controller(); (ctrl != nil) != (tc.opts != nil) {
				t.Fatalf("Controller() = %v with options %v", ctrl, tc.opts)
			} else if ctrl != nil && ctrl.Level() != ControlNormal {
				t.Fatalf("new controller at %v, want normal", ctrl.Level())
			}
			if !d.ReplicationEnabled() {
				t.Fatal("replication disabled at normal")
			}
			if err := d.Append(ctx, "p", 0, []byte("payload")); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := storage.ReadElem(ctx, peer, "p", 0); err != nil || !ok {
				t.Fatalf("append did not reach the peer: ok=%v err=%v", ok, err)
			}
		})
	}
}

// TestCheckpointDirReadsLevelWhileStepping appends and takes the reading
// while another goroutine steps the controller: the level has one owner,
// and its readers and its writer must not race (run under -race).
func TestCheckpointDirReadsLevelWhileStepping(t *testing.T) {
	ctx := context.Background()
	d, err := OpenCheckpointDir("",
		WithStore(storage.NewMemStore(storage.Target{Name: "local"})),
		WithReplication(Replication{Stores: []Store{storage.NewMemStore(storage.Target{Name: "peer"})}, Quorum: 1}),
		WithAdaptiveControl(AdaptiveControlConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			d.Controller().Step()
		}
	}()
	for seq := 0; seq < 50; seq++ {
		if err := d.Append(ctx, "p", seq, []byte("payload")); err != nil {
			t.Error(err)
			break
		}
		d.ReplicationEnabled()
	}
	<-done
}
