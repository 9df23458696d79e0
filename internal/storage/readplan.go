package storage

import (
	"bytes"
	"context"
	"sort"
)

// ReadSeqs runs the SeqGetter refinement on any store: through st's own
// GetSeqs when it has one, else a whole-chain Get filtered to want.
func ReadSeqs(ctx context.Context, st Store, key string, want []int) (listed []int, chain []Stored, missing []int, err error) {
	if sg, ok := st.(SeqGetter); ok {
		return sg.GetSeqs(ctx, key, want)
	}
	all, lost, err := st.Get(ctx, key)
	if err != nil {
		return nil, nil, nil, err
	}
	listed, chain, missing = FilterSeqs(all, lost, want)
	return listed, chain, missing, nil
}

// ReadElem reads the element st holds at (key, seq): ReadSeqs for that one
// seq. ok is false when the chain lists no readable element at seq; err
// reports the chain's own metadata being unreadable.
func ReadElem(ctx context.Context, st Store, key string, seq int) (data []byte, ok bool, err error) {
	_, chain, _, err := ReadSeqs(ctx, st, key, []int{seq})
	if err != nil || len(chain) == 0 {
		return nil, false, err
	}
	return chain[0].Data, true, nil
}

// HoldsIdentical reports whether st holds exactly data at (key, seq) — the
// one answer to "is this checkpoint already stored?" behind every
// stale-seq-as-ack decision: PutVerified's, and the replication server's at
// commit. A read failure reports not held.
func HoldsIdentical(ctx context.Context, st Store, key string, seq int, data []byte) bool {
	stored, ok, err := ReadElem(ctx, st, key, seq)
	return err == nil && ok && bytes.Equal(stored, data)
}

// FilterSeqs answers GetSeqs from a whole chain as Get returns it (stored
// copies, missing seqs): listed is every seq either names, strictly
// ascending; chain and missing keep only the wanted seqs, the first copy of
// each.
func FilterSeqs(all []Stored, lost []int, want []int) (listed []int, chain []Stored, missing []int) {
	wanted := wantSet(want)
	for _, el := range all {
		listed = append(listed, el.Seq)
		if wanted[el.Seq] {
			chain = append(chain, el)
			delete(wanted, el.Seq)
		}
	}
	for _, seq := range lost {
		listed = append(listed, seq)
		if wanted[seq] {
			missing = append(missing, seq)
			delete(wanted, seq)
		}
	}
	sort.Slice(chain, func(i, j int) bool { return chain[i].Seq < chain[j].Seq })
	sort.Ints(missing)
	return ascending(listed), chain, missing
}

// wantSet is want as a set: duplicates collapse.
func wantSet(want []int) map[int]bool {
	set := make(map[int]bool, len(want))
	for _, seq := range want {
		set[seq] = true
	}
	return set
}

// ascending sorts seqs in place and drops duplicates.
func ascending(seqs []int) []int {
	sort.Ints(seqs)
	out := seqs[:0]
	for i, seq := range seqs {
		if i == 0 || seq != seqs[i-1] {
			out = append(out, seq)
		}
	}
	return out
}

// ChainRead is one chain of a FanOut.Read batch: its key and its replica
// set in placement order. A name is one peer across the whole batch.
type ChainRead struct {
	Key   string
	Names []string
	Peers []Store // a nil store is a replica nothing backs
}

// ChainResult is FanOut.Read's answer for one chain: exactly what Union over
// a Fetch of it gives with the same admit. Err, a *QuorumError, is set only
// when no replica answered.
type ChainResult struct {
	Merged     []Stored // admitted copies, in sequence order
	Source     []int    // the replica Merged[i] was read from
	Unreadable []int    // seqs some replica lists but none gave an admitted copy of
	Err        error
}

// Read reads a batch of chains from their replica sets, downloading each
// admitted element once. Round one asks every replica at once: the first in
// placement order for its whole chain, the others only for the seqs they
// list. Every seq the first replica did not give an admitted copy of is then
// requested from its next holder in placement order, round by round, until
// it is admitted or no holder is left — so every seq comes from the first
// replica whose copy admit accepts (nil admits any), as in Union. Each
// round runs through JoinByPeer. admit runs on the caller's goroutine;
// read is the chain's index in reads.
func (f *FanOut) Read(ctx context.Context, reads []ChainRead, admit func(read int, el Stored) bool) []ChainResult {
	out := make([]ChainResult, len(reads))
	plans := make([]chainPlan, len(reads))
	var first []*readCall
	for r, rd := range reads {
		for i := range rd.Peers {
			first = append(first, &readCall{read: r, replica: i, whole: i == 0})
		}
	}
	f.runCalls(ctx, reads, first)
	for r, rd := range reads {
		calls := first[:len(rd.Peers)]
		first = first[len(rd.Peers):]
		outcomes := make([]error, len(calls))
		for i, c := range calls {
			outcomes[i] = c.err
		}
		if acked, failed := f.Tally("get", 1, rd.Names, outcomes); acked == 0 {
			out[r].Err = &QuorumError{Op: "get", Quorum: 1, Errs: failed}
			continue
		}
		plans[r].start(calls)
		plans[r].settle(r, calls[0], admit)
	}
	for {
		var calls []*readCall
		for r := range plans {
			calls = plans[r].requests(r, calls)
		}
		if len(calls) == 0 {
			break
		}
		f.runCalls(ctx, reads, calls)
		for _, c := range calls {
			plans[c.read].settle(c.read, c, admit)
		}
	}
	for r := range plans {
		if out[r].Err == nil {
			out[r].Merged, out[r].Source, out[r].Unreadable = plans[r].result()
		}
	}
	return out
}

// readCall is one call of a read round to one replica of one chain: the
// whole chain, or the listing plus the bodies of want.
type readCall struct {
	read, replica int
	whole         bool
	want          []int // a whole call's is its listing, set once it answers
	listed        []int
	chain         []Stored
	err           error
}

// runCalls runs one round through JoinByPeer and counts the body bytes it
// downloaded.
func (f *FanOut) runCalls(ctx context.Context, reads []ChainRead, calls []*readCall) {
	JoinByPeer(len(calls), func(i int) string {
		return reads[calls[i].read].Names[calls[i].replica]
	}, func(i int) { calls[i].do(ctx, reads[calls[i].read]) })
	var n int
	for _, c := range calls {
		n += bodyBytes(c.chain)
	}
	f.met.observeReadBytes("get", n)
}

// bodyBytes sums the element bodies of chain.
func bodyBytes(chain []Stored) (n int) {
	for _, el := range chain {
		n += len(el.Data)
	}
	return n
}

func (c *readCall) do(ctx context.Context, rd ChainRead) {
	peer := rd.Peers[c.replica]
	switch {
	case peer == nil:
		c.err = errNoStore
	case c.whole:
		var missing []int
		c.chain, missing, c.err = peer.Get(ctx, rd.Key)
		c.listed, _, _ = FilterSeqs(c.chain, missing, nil)
	default:
		c.listed, c.chain, _, c.err = ReadSeqs(ctx, peer, rd.Key, c.want)
	}
	if c.err != nil {
		c.listed, c.chain = nil, nil // a failed call answers nothing
	}
	if c.whole {
		c.want = c.listed
	}
}

// chainPlan is one chain's state across the rounds of a Read.
type chainPlan struct {
	seqs    []int         // every seq an answering replica listed in round one, ascending
	holders map[int][]int // seq → the replicas that listed it, in placement order
	next    map[int]int   // seq → index into holders[seq] of the replica to ask next
	won     map[int]winner
	dead    map[int]bool // replicas that failed a call: asked nothing more
}

type winner struct {
	el      Stored
	replica int
}

// start records round one's listings; calls are in placement order.
func (p *chainPlan) start(calls []*readCall) {
	p.holders, p.next = make(map[int][]int), make(map[int]int)
	p.won, p.dead = make(map[int]winner), make(map[int]bool)
	for _, c := range calls {
		if c.err != nil {
			p.dead[c.replica] = true
			continue
		}
		for _, seq := range c.listed {
			if p.holders[seq] == nil {
				p.seqs = append(p.seqs, seq)
			}
			p.holders[seq] = append(p.holders[seq], c.replica)
		}
	}
	sort.Ints(p.seqs)
}

// requests appends this round's calls for chain r: every seq not yet won,
// from its next holder that has not failed.
func (p *chainPlan) requests(r int, calls []*readCall) []*readCall {
	byReplica := make(map[int]*readCall)
	for _, seq := range p.seqs {
		if _, ok := p.won[seq]; ok {
			continue
		}
		h := p.holders[seq]
		for p.next[seq] < len(h) && p.dead[h[p.next[seq]]] {
			p.next[seq]++
		}
		if p.next[seq] == len(h) {
			continue
		}
		i := h[p.next[seq]]
		c := byReplica[i]
		if c == nil {
			c = &readCall{read: r, replica: i}
			byReplica[i] = c
			calls = append(calls, c)
		}
		c.want = append(c.want, seq)
	}
	return calls
}

// settle offers c's copies of the seqs it was asked for to admit, and moves
// every one of them past this replica.
func (p *chainPlan) settle(r int, c *readCall, admit func(int, Stored) bool) {
	if c.err != nil {
		p.dead[c.replica] = true
	}
	bodies := make(map[int]Stored, len(c.chain))
	for _, el := range c.chain {
		if _, dup := bodies[el.Seq]; !dup {
			bodies[el.Seq] = el
		}
	}
	for _, seq := range c.want {
		p.next[seq]++
		if el, ok := bodies[seq]; ok && (admit == nil || admit(r, el)) {
			p.won[seq] = winner{el, c.replica}
		}
	}
}

func (p *chainPlan) result() (merged []Stored, source, unreadable []int) {
	for _, seq := range p.seqs {
		if w, ok := p.won[seq]; ok {
			merged, source = append(merged, w.el), append(source, w.replica)
		} else {
			unreadable = append(unreadable, seq)
		}
	}
	return merged, source, unreadable
}
