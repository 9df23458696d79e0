package remote

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"

	"aic/internal/recovery"
	"aic/internal/storage"
)

// TestReplicationSurvivesPeerDeathAndReset is the acceptance scenario: a
// checkpoint chain replicated to three peers (durable FSStore backends)
// survives the permanent death of one peer plus a mid-transfer connection
// reset on another, and a replica-set restore across the survivors returns
// a byte-identical image.
func TestReplicationSurvivesPeerDeathAndReset(t *testing.T) {
	chain, images := buildChain(t)

	var (
		addrs   [3]string
		servers [3]*Server
		disks   [3]*storage.FSStore
	)
	for i := range servers {
		fs, err := storage.NewFSStore(t.TempDir(), storage.Target{Name: "peer"})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(fs, ServerConfig{})
		go srv.Serve(context.Background(), ln)
		t.Cleanup(func() { srv.Close() })
		addrs[i], servers[i], disks[i] = ln.Addr().String(), srv, fs
	}

	// Peer 1 suffers a connection reset mid-transfer of the full
	// checkpoint: its first connection dies after 600 bytes, well inside
	// the data stream.
	resetCfg := testConfig()
	resetCfg.Dialer = &FaultDialer{Plan: func(conn int) Fault {
		if conn == 1 {
			return Fault{CutAfterBytes: 600}
		}
		return Fault{}
	}}
	// Peer 2 will die permanently below; a tight retry budget keeps the
	// test fast once it does.
	deadCfg := testConfig()
	deadCfg.Retries = 1

	clients := [3]*RemoteStore{
		NewStore(addrs[0], testConfig()),
		NewStore(addrs[1], resetCfg),
		NewStore(addrs[2], deadCfg),
	}
	for _, c := range clients {
		defer c.Close()
	}
	// put replicates one element to all three peers at once, each through
	// the verified Put, and holds a quorum of two.
	var fan storage.FanOut
	put := func(proc string, seq int, data []byte) error {
		acked, failed := fan.Run(ctx, "put", 2, []string{"0", "1", "2"}, []storage.Store{clients[0], clients[1], clients[2]},
			func(ctx context.Context, _ int, peer storage.Store) error {
				return storage.PutVerified(ctx, peer, proc, seq, data)
			})
		if acked < 2 {
			return &storage.QuorumError{Op: "put", Acked: acked, Quorum: 2, Errs: failed}
		}
		return nil
	}

	// The full checkpoint replicates everywhere — through peer 1's reset.
	if err := put("p0", chain[0].Seq, chain[0].Data); err != nil {
		t.Fatalf("replicating full checkpoint: %v", err)
	}
	if (resetCfg.Dialer.(*FaultDialer)).dials() < 2 {
		t.Fatal("peer 1's reset never fired; the scenario did not exercise resume")
	}

	// Peer 2 dies for good.
	servers[2].Close()

	// The deltas keep replicating on the surviving quorum of two.
	for _, el := range chain[1:] {
		if err := put("p0", el.Seq, el.Data); err != nil {
			t.Fatalf("replicating seq %d with a dead peer: %v", el.Seq, err)
		}
	}

	// Losing another peer breaks quorum: the failure is a QuorumError
	// wrapping the dark peer, not a hang.
	clients[1].Close()
	err := put("other", 0, []byte("beyond quorum"))
	var qe *storage.QuorumError
	if !errors.As(err, &qe) || !errors.Is(err, ErrPeerDark) {
		t.Fatalf("put below quorum = %v, want QuorumError wrapping ErrPeerDark", err)
	}

	// Restore from the surviving replicas, over the wire: peer 2 is dark,
	// peer 1's client was closed — reopen it as a recovering node would. The
	// image must be byte-identical to the source, read from a live peer.
	reopened := NewStore(addrs[1], testConfig())
	defer reopened.Close()
	set := recovery.ReplicaSet{Fan: new(storage.FanOut), Place: func(string) ([]string, []storage.Store, error) {
		return []string{"0", "1", "2"}, []storage.Store{clients[0], reopened, clients[2]}, nil
	}}
	as, rep, err := set.Restore(ctx, "p0")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replica == 2 {
		t.Fatal("restore picked the dead peer")
	}
	if rep.LastSeq != chain[len(chain)-1].Seq {
		t.Fatalf("restored through seq %d, want %d", rep.LastSeq, chain[len(chain)-1].Seq)
	}
	if !as.Equal(images[len(images)-1]) {
		t.Fatal("restored image is not byte-identical to the source")
	}

	// And the survivors' disks really hold byte-identical chains.
	for i := 0; i < 2; i++ {
		got, missing, err := disks[i].Get(ctx, "p0")
		if err != nil || len(missing) != 0 || len(got) != len(chain) {
			t.Fatalf("disk %d: %d elements, missing %v, err %v", i, len(got), missing, err)
		}
		for j := range got {
			if !bytes.Equal(got[j].Data, chain[j].Data) {
				t.Fatalf("disk %d element %d differs from source", i, j)
			}
		}
	}
}
