package remote

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"testing"
	"time"

	"aic/internal/storage"
)

// wireFrame is one expected frame, spelled out: the test frames it with its
// own encoder, so the pin does not lean on appendFrame.
type wireFrame struct {
	kind    byte
	payload string
}

// frameBytes encodes frames. A data frame's or a sealed element's CRC
// covers its kind and its uvarint header field; any other frame's CRC
// covers its kind and its whole payload.
func frameBytes(frames ...wireFrame) []byte {
	var out []byte
	for _, f := range frames {
		body := append([]byte{f.kind}, f.payload...)
		covered := body
		if f.kind == kindPutData || f.kind == kindElemSealed {
			_, n := binary.Uvarint(body[1:])
			covered = body[:1+n]
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
		out = append(out, body...)
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(covered, crc32.MakeTable(crc32.Castagnoli)))
	}
	return out
}

// readRawFrame reads one frame off r and returns its bytes exactly as they
// crossed the wire: length prefix, kind, payload and CRC.
func readRawFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	rest := make([]byte, binary.LittleEndian.Uint32(hdr[:])+4)
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, err
	}
	return append(hdr[:], rest...), nil
}

var helloFrame = wireFrame{kindHello, `{"v":5}`}

// recordingPeer answers every connection's hello, then refuses its one
// request with an error frame, and hands the test every byte the client
// wrote on that connection.
func recordingPeer(t *testing.T) (addr string, written <-chan []byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	out := make(chan []byte, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var got []byte
			for _, reply := range []wireFrame{{kindHelloOK, `{"v":5}`}, {kindErr, `{"code":"bad-request","msg":"recorded"}`}} {
				frame, err := readRawFrame(conn)
				if err != nil {
					break
				}
				got = append(got, frame...)
				conn.Write(frameBytes(reply))
			}
			rest, _ := io.ReadAll(conn) // the client closes after the refusal
			conn.Close()
			out <- append(got, rest...)
		}
	}()
	return ln.Addr().String(), out
}

// TestRequestFramesGolden pins the exact bytes on the wire: every request
// the client writes, and the error frame the server writes for each class
// of refused request. The requests the server is sent are spelled as raw
// JSON, so the pin holds whatever shape the message types take.
func TestRequestFramesGolden(t *testing.T) {
	t.Run("client", func(t *testing.T) {
		addr, written := recordingPeer(t)
		cfg := testConfig()
		cfg.Retries = -1
		rs := NewStore(addr, cfg)
		defer rs.Close()
		data := []byte("golden object")
		for _, tc := range []struct {
			name string
			op   func() error
			want wireFrame
		}{
			{"put-begin", func() error {
				return rs.Put(storage.WithMigration(ctx), "acme@web#s1of3", 7, data)
			}, wireFrame{kindPutBegin, `{"proc":"web","tenant":"acme","stripe":"s1of3","seq":7,"size":13,"crc":2713160889,"migrate":true}`}},
			{"get", func() error {
				_, _, err := rs.Get(ctx, "globex@db#s0of2")
				return err
			}, wireFrame{kindGet, `{"proc":"db","tenant":"globex","stripe":"s0of2"}`}},
			{"get-sealed", func() error {
				_, _, err := rs.Get(storage.WithSealedRead(ctx), "globex@db#s0of2")
				return err
			}, wireFrame{kindGet, `{"proc":"db","tenant":"globex","stripe":"s0of2","sealed":true}`}},
			{"get-seqs", func() error {
				_, _, _, err := rs.GetSeqs(ctx, "web", []int{2, 3})
				return err
			}, wireFrame{kindGet, `{"proc":"web","only":true,"want":[2,3]}`}},
			{"list", func() error {
				_, err := rs.List(ctx)
				return err
			}, wireFrame{kindList, ``}},
			{"delete", func() error {
				return rs.Delete(ctx, "acme@web")
			}, wireFrame{kindDelete, `{"proc":"web","tenant":"acme"}`}},
			{"truncate", func() error {
				return rs.Truncate(ctx, "web#s0of2", 4)
			}, wireFrame{kindTruncate, `{"proc":"web","stripe":"s0of2","fullSeq":4}`}},
			{"scrub", func() error {
				_, err := rs.Scrub(ctx, "acme@web", true)
				return err
			}, wireFrame{kindScrub, `{"proc":"web","tenant":"acme","repair":true}`}},
		} {
			if err := tc.op(); err == nil {
				t.Fatalf("%s: the refused request succeeded", tc.name)
			}
			var got []byte
			select {
			case got = <-written:
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: the peer recorded nothing", tc.name)
			}
			if want := frameBytes(helloFrame, tc.want); !bytes.Equal(got, want) {
				t.Errorf("%s: client wrote\n%q\nwant\n%q", tc.name, got, want)
			}
		}
	})

	t.Run("server-refusals", func(t *testing.T) {
		// putBegin declares size zero bytes: their objectCRC is 1696784233
		// for size 8.
		putBegin := func(seq int, size int64) wireFrame {
			return wireFrame{kindPutBegin, fmt.Sprintf(`{"proc":"web","tenant":"acme","seq":%d,"size":%d,"crc":1696784233}`, seq, size)}
		}
		zeros := func(n int) wireFrame { return wireFrame{kindPutData, string(dataFrame(0, make([]byte, n)))} }
		offset0 := wireFrame{kindPutOffset, `{"offset":0}`}
		for _, tc := range []struct {
			name string
			cfg  ServerConfig
			// quota, when set, bounds the backing store's bytes per tenant.
			quota int64
			// held is committed to the backing store before the exchange.
			held map[string]int
			send []wireFrame
			want []wireFrame
		}{
			{name: "bad-proc-name",
				send: []wireFrame{{kindDelete, `{"proc":"a@b"}`}},
				want: []wireFrame{{kindErr, `{"code":"bad-proc-name","msg":"storage: invalid process name: \"a@b\" contains \"@\" (reserved for tenant namespacing)"}`}}},
			{name: "malformed-stripe",
				send: []wireFrame{{kindGet, `{"proc":"web","stripe":"bogus"}`}},
				want: []wireFrame{{kindErr, `{"code":"bad-proc-name","msg":"remote: invalid process name: malformed stripe label \"bogus\""}`}}},
			{name: "stale-seq",
				held: map[string]int{"acme@web": 3},
				send: []wireFrame{putBegin(1, 8), zeros(8), {kindPutCommit, ``}},
				want: []wireFrame{offset0, {kindErr, `{"code":"stale-seq","msg":"storage: acme@web: stale checkpoint sequence: seq 1 not after 3"}`}}},
			{name: "quota", quota: 4,
				send: []wireFrame{putBegin(0, 8), zeros(8), {kindPutCommit, ``}},
				want: []wireFrame{offset0, {kindErr, `{"code":"quota-exceeded","msg":"storage: tenant quota exceeded: tenant acme at 0 bytes, +8 exceeds 4"}`}}},
			{name: "backpressure", cfg: ServerConfig{MaxStagingBytes: 100},
				send: []wireFrame{putBegin(0, 80), putBegin(1, 80)},
				want: []wireFrame{offset0, {kindErr, `{"code":"backpressure","msg":"remote: staging pool full: 80 of 100 bytes reserved"}`}}},
			{name: "malformed-put-begin",
				send: []wireFrame{{kindPutBegin, `{"proc":"web","tenant":"acme","stripe":"s0of2","seq":-1,"size":8,"crc":7,"migrate":true}`}},
				want: []wireFrame{{kindErr, `{"code":"internal","msg":"remote: malformed put-begin {Proc:web Tenant:acme Stripe:s0of2 Seq:-1 Size:8 CRC:7 Migrate:true}"}`}}},
			{name: "commit-outside-transfer",
				send: []wireFrame{{kindPutCommit, ``}},
				want: []wireFrame{{kindErr, `{"code":"bad-request","msg":"commit outside a transfer"}`}}},
		} {
			t.Run(tc.name, func(t *testing.T) {
				back := storage.NewMemStore(storage.Target{Name: "peer"})
				for key, seq := range tc.held {
					if err := back.Put(ctx, key, seq, []byte("held")); err != nil {
						t.Fatal(err)
					}
				}
				var store storage.Store = back
				if tc.quota > 0 {
					store = storage.NewQuotaStore(back, storage.Quota{MaxBytes: tc.quota})
				}
				_, addr := startServerCfg(t, store, tc.cfg)
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(5 * time.Second))
				if _, err := conn.Write(frameBytes(append([]wireFrame{helloFrame}, tc.send...)...)); err != nil {
					t.Fatal(err)
				}
				var got []byte
				for range len(tc.want) + 1 { // the hello's reply, then one per request
					frame, err := readRawFrame(conn)
					if err != nil {
						t.Fatalf("after %q: %v", got, err)
					}
					got = append(got, frame...)
				}
				want := frameBytes(append([]wireFrame{{kindHelloOK, `{"v":5}`}}, tc.want...)...)
				if !bytes.Equal(got, want) {
					t.Errorf("server wrote\n%q\nwant\n%q", got, want)
				}
			})
		}
	})
}
