package remote

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"aic/internal/storage"
)

// plainStore hides a store's optional refinements: the server must answer a
// partial read through the Get-and-filter fallback.
type plainStore struct{ storage.Store }

// scriptedPeer speaks just enough of the protocol to answer every kindGet
// with reply(request) — a hostile peer. It counts the Gets.
func scriptedPeer(t *testing.T, reply func(req getMsg) (chainMsg, []storage.Stored)) (addr string, gets *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gets = new(atomic.Int32)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	serve := func(conn net.Conn) {
		defer conn.Close()
		if _, _, err := readFrame(conn, DefaultMaxFrame); err != nil {
			return
		}
		if writeJSON(conn, kindHelloOK, helloMsg{Version: protocolVersion}) != nil {
			return
		}
		for {
			kind, payload, err := readFrame(conn, DefaultMaxFrame)
			if err != nil || kind != kindGet {
				return
			}
			gets.Add(1)
			var req getMsg
			if decodeJSON(payload, &req) != nil {
				return
			}
			hdr, chain := reply(req)
			hdr.Count = len(chain)
			if writeJSON(conn, kindChain, hdr) != nil {
				return
			}
			for _, el := range chain {
				if writeFrame(conn, kindElem, elemFrame(el.Seq, el.Data)) != nil {
					return
				}
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				serve(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String(), gets
}

// A partial read over the wire answers exactly like Get filtered to want,
// whether the peer's store has the refinement or lacks it (the server
// filters), and ships no unwanted bodies either way.
func TestReplicationGetSeqsOverWire(t *testing.T) {
	back := storage.NewMemStore(storage.Target{Name: "peer"})
	body := bytes.Repeat([]byte("b"), 4096)
	for seq := 0; seq < 5; seq++ {
		if err := back.Put(ctx, "p", seq, append([]byte{byte(seq)}, body...)); err != nil {
			t.Fatal(err)
		}
	}
	all, _, err := back.Get(ctx, "p")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 1, 1, 9}
	wantListed, wantChain, wantMissing := storage.FilterSeqs(all, nil, want)
	for _, tc := range []struct {
		name string
		addr string
	}{
		{"refined store", startServer(t, back)},
		{"store without the refinement", startServer(t, plainStore{back})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			dialer := &countingDialer{}
			cfg.Dialer = dialer
			rs := NewStore(tc.addr, cfg)
			defer rs.Close()
			listed, chain, missing, err := rs.GetSeqs(ctx, "p", want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(listed, wantListed) || !reflect.DeepEqual(chain, wantChain) || !reflect.DeepEqual(missing, wantMissing) {
				t.Fatalf("GetSeqs = %v, %d elems, %v; want %v, %d elems, %v", listed, len(chain), missing, wantListed, len(wantChain), wantMissing)
			}
			if n := dialer.Total(); n >= 3*4096 { // bytes the client read, hello included
				t.Fatalf("%d bytes crossed the wire", n)
			}
		})
	}
}

// A read's answer is outside input: anything but elements and missing seqs
// each named once and in order — for a partial read, under the Only echo
// and a strictly ascending listing, and all of them wanted and listed; for
// a whole chain, without the echo — fails the call as the peer's, at once,
// without retrying a peer that answered. Rows with whole set drive Get, the
// others GetSeqs.
func TestReplicationGetSeqsRejectsHostileReplies(t *testing.T) {
	el := func(seq int) storage.Stored { return storage.Stored{Seq: seq, Data: []byte{byte(seq)}} }
	only := func(listed ...int) chainMsg { return chainMsg{Only: true, Listed: listed} }
	lost := func(hdr chainMsg, missing ...int) chainMsg { hdr.Missing = missing; return hdr }
	els := func(seqs ...int) []storage.Stored {
		var chain []storage.Stored
		for _, seq := range seqs {
			chain = append(chain, el(seq))
		}
		return chain
	}
	type row struct {
		name  string
		hdr   chainMsg
		chain []storage.Stored
		ok    bool
	}
	partial := []row{
		{"honest", only(0, 1, 2, 3), []storage.Stored{el(1), el(3)}, true},
		{"honest with a missing body", lost(only(0, 1, 2, 3), 3), []storage.Stored{el(1)}, true},
		{"element not requested", only(0, 1, 2, 3), []storage.Stored{el(1), el(2)}, false},
		{"element not listed", only(0, 1, 2), []storage.Stored{el(1), el(3)}, false},
		{"listing out of order", only(0, 2, 1, 3), []storage.Stored{el(1), el(3)}, false},
		{"listing repeats a seq", only(0, 1, 1, 3), []storage.Stored{el(1), el(3)}, false},
		{"element sent twice", only(0, 1, 2, 3), []storage.Stored{el(1), el(1)}, false},
		{"elements out of order", only(0, 1, 2, 3), []storage.Stored{el(3), el(1)}, false},
		{"whole chain without the only echo", chainMsg{}, []storage.Stored{el(0), el(1), el(2), el(3)}, false},
		{"missing seq not requested", lost(only(0, 1, 2, 3), 2), []storage.Stored{el(1), el(3)}, false},
		{"missing seq not listed", lost(only(0, 1, 2), 3), []storage.Stored{el(1)}, false},
		{"missing seq also sent", lost(only(0, 1, 2, 3), 3), []storage.Stored{el(1), el(3)}, false},
		{"missing seq repeats", lost(only(0, 1, 2, 3), 1, 1), nil, false},
		{"missing seqs go backwards", lost(only(0, 1, 2, 3), 3, 1), nil, false},
	}
	whole := []row{
		{"honest whole chain", chainMsg{}, els(0, 1, 2, 3), true},
		{"honest whole chain with a missing body", lost(chainMsg{}, 2), els(0, 1, 3), true},
		{"whole chain out of order", chainMsg{}, els(0, 2, 1, 3), false},
		{"whole chain sends a seq twice", chainMsg{}, els(0, 1, 1, 2), false},
		{"whole chain seq both sent and missing", lost(chainMsg{}, 1), els(0, 1, 2), false},
		{"whole chain missing seqs go backwards", lost(chainMsg{}, 3, 1), els(0, 2), false},
		{"whole chain with the only echo", only(0, 1, 2, 3), els(0, 1, 2, 3), false},
	}
	run := func(tc row, whole bool) {
		t.Run(tc.name, func(t *testing.T) {
			want := []int{1, 3}
			if whole {
				want = nil
			}
			addr, gets := scriptedPeer(t, func(req getMsg) (chainMsg, []storage.Stored) {
				if req.Only == whole || !reflect.DeepEqual(req.Want, want) || req.Proc != "p" {
					t.Errorf("request on the wire = %+v, want only=%t and want=%v", req, !whole, want)
				}
				return tc.hdr, tc.chain
			})
			rs := NewStore(addr, testConfig())
			defer rs.Close()
			var listed, missing []int
			var chain []storage.Stored
			var err error
			if whole {
				chain, missing, err = rs.Get(ctx, "p")
			} else {
				listed, chain, missing, err = rs.GetSeqs(ctx, "p", want)
			}
			if tc.ok {
				if err != nil || !reflect.DeepEqual(listed, tc.hdr.Listed) || !reflect.DeepEqual(chain, tc.chain) || !reflect.DeepEqual(missing, tc.hdr.Missing) {
					t.Fatalf("honest reply: %v %v %v %v", listed, chain, missing, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted %+v / %v", tc.hdr, tc.chain)
			}
			if errors.Is(err, ErrPeerDark) || gets.Load() != 1 {
				t.Fatalf("err = %v after %d Gets; want one terminal failure", err, gets.Load())
			}
		})
	}
	for _, tc := range partial {
		run(tc, false)
	}
	for _, tc := range whole {
		run(tc, true)
	}
}
