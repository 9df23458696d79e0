package remote

import (
	"context"
	"encoding/json"
	"net"
	"sync"
	"testing"

	"aic/internal/storage"
)

// pipePeer is a Dialer whose every connection is a net.Pipe to a scripted
// peer: it answers the hello, reads one kindGet and replies with hdr as the
// kindChain payload verbatim, then each record of elems as an element frame
// of kind elem (a record is one length byte and that many payload bytes),
// and hangs up.
type pipePeer struct {
	hdr, elems []byte
	elem       byte
	wg         sync.WaitGroup
}

func (p *pipePeer) DialContext(context.Context, string, string) (net.Conn, error) {
	client, server := net.Pipe()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer server.Close()
		if _, _, err := readFrame(server, DefaultMaxFrame); err != nil {
			return
		}
		if writeJSON(server, kindHelloOK, helloMsg{Version: protocolVersion}) != nil {
			return
		}
		if kind, _, err := readFrame(server, DefaultMaxFrame); err != nil || kind != kindGet {
			return
		}
		if writeFrame(server, kindChain, p.hdr) != nil {
			return
		}
		for rest := p.elems; len(rest) > 0; {
			n := min(int(rest[0]), len(rest)-1)
			if writeFrame(server, p.elem, rest[1:1+n]) != nil {
				return
			}
			rest = rest[1+n:]
		}
	}()
	return client, nil
}

// elemRecords encodes elements as pipePeer records.
func elemRecords(chain ...storage.Stored) []byte {
	var out []byte
	for _, el := range chain {
		p := elemFrame(el.Seq, el.Data)
		out = append(append(out, byte(len(p))), p...)
	}
	return out
}

// FuzzGetSeqsReply feeds RemoteStore.GetSeqs, and then RemoteStore.Get, a
// peer's arbitrary answer — a fuzzed chainMsg header and fuzzed element
// frames, sealed or not, to a read that is sealed or not — and requires
// that each call returns without panicking, and that an accepted answer
// keeps its contract. For both: an element is of the kind the read asked
// for. For GetSeqs (SeqGetter): the listing strictly ascending, and the
// bodies and the missing seqs each ascending, unique, wanted, listed and
// disjoint. For Get (Store): no Only echo, and the bodies and the missing
// seqs each ascending, unique and disjoint.
func FuzzGetSeqsReply(f *testing.F) {
	hdr := func(m chainMsg) []byte {
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	el := func(seq int) storage.Stored { return storage.Stored{Seq: seq, Data: []byte{byte(seq), 0xcc}} }
	const want13 = 1<<1 | 1<<3
	f.Add(hdr(chainMsg{Only: true, Count: 2, Listed: []int{0, 1, 2, 3}}), elemRecords(el(1), el(3)), uint8(want13), false, false)
	f.Add(hdr(chainMsg{Only: true, Count: 1, Listed: []int{0, 1, 2, 3}, Missing: []int{3}}), elemRecords(el(1)), uint8(want13), false, false)
	f.Add(hdr(chainMsg{Only: true, Count: 2, Listed: []int{0, 1, 2, 3}, Missing: []int{3}}), elemRecords(el(1), el(3)), uint8(want13), false, false)
	f.Add(hdr(chainMsg{Only: true, Listed: []int{0, 1, 2, 3}, Missing: []int{3, 1}}), []byte(nil), uint8(want13), false, false)
	f.Add(hdr(chainMsg{Only: true, Count: 2, Listed: []int{0, 2, 1, 3}}), elemRecords(el(3), el(1)), uint8(0xff), false, false)
	f.Add(hdr(chainMsg{Count: 4}), elemRecords(el(0), el(1), el(2), el(3)), uint8(0xff), false, false)
	f.Add([]byte(`{"count":3,"only":true,"listed":[1]}`), []byte{2, 0x80, 0x80, 1}, uint8(2), false, false)
	f.Add(hdr(chainMsg{Count: 3, Missing: []int{1}}), elemRecords(el(0), el(1), el(2)), uint8(0), false, false)
	// Sealed replies: to a sealed read, and to one that is not, and a
	// plain reply to a sealed read.
	f.Add(hdr(chainMsg{Only: true, Count: 2, Listed: []int{0, 1, 2, 3}}), elemRecords(el(1), el(3)), uint8(want13), true, true)
	f.Add(hdr(chainMsg{Count: 4}), elemRecords(el(0), el(1), el(2), el(3)), uint8(0xff), false, true)
	f.Add(hdr(chainMsg{Count: 4}), elemRecords(el(0), el(1), el(2), el(3)), uint8(0xff), true, false)
	f.Fuzz(func(t *testing.T, hdr, elems []byte, wantBits uint8, sealedRead, sealedReply bool) {
		var want []int
		wanted := map[int]bool{}
		for seq := 0; seq < 8; seq++ {
			if wantBits&(1<<seq) != 0 {
				want = append(want, seq)
				wanted[seq] = true
			}
		}
		peer := &pipePeer{hdr: hdr, elems: elems, elem: elemKind(sealedReply)}
		read := context.Background()
		if sealedRead {
			read = storage.WithSealedRead(read)
		}
		// A reply's elements are of the kind its read asked for.
		kindsMatch := func(n int) {
			if n > 0 && sealedRead != sealedReply {
				t.Fatalf("accepted %d elements of kind 0x%02x for a read sealed=%t", n, peer.elem, sealedRead)
			}
		}
		cfg := testConfig()
		cfg.Retries = -1
		cfg.Dialer = peer
		// The peer hangs up after one reply, so each call gets its own client.
		call := func(read func(rs *RemoteStore) error) error {
			rs := NewStore("fuzz-peer", cfg)
			err := read(rs)
			rs.Close()
			peer.wg.Wait()
			return err
		}
		ascendingOnce := func(what string, seqs []int, named map[int]bool) {
			for i, seq := range seqs {
				if named[seq] || i > 0 && seq <= seqs[i-1] {
					t.Fatalf("accepted %s seqs %v", what, seqs)
				}
				named[seq] = true
			}
		}

		var whole []storage.Stored
		var lost []int
		if call(func(rs *RemoteStore) (err error) {
			whole, lost, err = rs.Get(read, "p")
			return err
		}) == nil {
			kindsMatch(len(whole))
			var m chainMsg
			if json.Unmarshal(hdr, &m) == nil && m.Only {
				t.Fatalf("Get accepted a reply with the Only echo: %s", hdr)
			}
			named := map[int]bool{}
			sent := make([]int, len(whole))
			for i, el := range whole {
				sent[i] = el.Seq
			}
			ascendingOnce("whole-chain sent", sent, named)
			ascendingOnce("whole-chain missing", lost, named)
		}

		var listed, missing []int
		var chain []storage.Stored
		if call(func(rs *RemoteStore) (err error) {
			listed, chain, missing, err = rs.GetSeqs(read, "p", want)
			return err
		}) != nil {
			return
		}
		kindsMatch(len(chain))
		inListing := map[int]bool{}
		for i, seq := range listed {
			if i > 0 && seq <= listed[i-1] {
				t.Fatalf("accepted listing %v: not strictly ascending", listed)
			}
			inListing[seq] = true
		}
		named := map[int]bool{}
		vet := func(what string, seqs []int) {
			for i, seq := range seqs {
				if !wanted[seq] || !inListing[seq] || named[seq] || i > 0 && seq <= seqs[i-1] {
					t.Fatalf("accepted %s seqs %v (listed %v, want %v, missing %v)", what, seqs, listed, want, missing)
				}
				named[seq] = true
			}
		}
		sent := make([]int, len(chain))
		for i, el := range chain {
			sent[i] = el.Seq
		}
		vet("sent", sent)
		vet("missing", missing)
	})
}
