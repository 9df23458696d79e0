package recovery

import (
	"context"
	"fmt"
	"sort"

	"aic/internal/ckpt"
	"aic/internal/memsim"
	"aic/internal/storage"
)

// ReplicaSet reads chains back from a replica set, behind both facades —
// the read-side twin of the storage.FanOut its reads run through. Its one
// guarantee (DESIGN.md §15): a restore anchors at the newest intact full
// checkpoint any replica holds, then replays the longest contiguous
// verifiable run of deltas, each seq from the first replica in placement
// order whose copy verifies.
type ReplicaSet struct {
	Fan *storage.FanOut
	// Place resolves a chain key — stripe chains have their own — to its
	// replica set in placement order; a nil store is a replica nothing backs.
	Place func(key string) (names []string, stores []storage.Store, err error)
}

// read reads keys from their replica sets as one batch (storage.FanOut.Read).
// A key Place cannot resolve reads as no replica answering. The read is
// sealed (storage.WithSealedRead): every admit decodes the body it is
// handed, through ckpt.Decode or ckpt.DecodeStripe, and so checks it end
// to end.
func (rs ReplicaSet) read(ctx context.Context, keys []string, admit func(k int, el storage.Stored) bool) []storage.ChainResult {
	ctx = storage.WithSealedRead(ctx)
	out := make([]storage.ChainResult, len(keys))
	var reads []storage.ChainRead
	var placed []int // placed[j] is reads[j]'s index in keys
	for k, key := range keys {
		names, stores, err := rs.Place(key)
		if err != nil {
			out[k].Err = err
			continue
		}
		reads, placed = append(reads, storage.ChainRead{Key: key, Names: names, Peers: stores}), append(placed, k)
	}
	for j, res := range rs.Fan.Read(ctx, reads, func(j int, el storage.Stored) bool { return admit(placed[j], el) }) {
		out[placed[j]] = res
	}
	return out
}

// Chain returns the per-seq union of key's chain across its replica set, in
// sequence order: one Element for every seq some replica stores, read from
// the first replica whose copy verifies (nil Ckpt: none did), striped
// elements decoded from their parts. missing lists the seqs replicas list
// but none stores. The base chain is read first — a stripe manifest is
// admitted when it decodes as a manifest under its own label — then every
// stripe key the admitted manifests name, as one batch; each element is
// downloaded once.
func (rs ReplicaSet) Chain(ctx context.Context, key string) (elems []Element, missing []int, err error) {
	found := make(map[int]Element) // by seq, for every seq some replica stores
	manifests := make(map[int]*ckpt.StripeFrame)
	base := rs.read(ctx, []string{key}, func(_ int, el storage.Stored) bool {
		e, man, err := verify(key, el)
		found[el.Seq] = e
		if man != nil {
			manifests[el.Seq] = man
		}
		return err == nil
	})[0]
	if base.Err != nil {
		return nil, nil, base.Err
	}
	parts := rs.stripeParts(ctx, key, base.Merged, manifests)
	for i, el := range base.Merged {
		e := found[el.Seq]
		if man := manifests[el.Seq]; man != nil {
			e = reassemble(key, man, parts)
		}
		if e.Ckpt != nil {
			e.Replica = base.Source[i]
		}
		elems = append(elems, e)
	}
	for _, seq := range base.Unreadable {
		if e, stored := found[seq]; stored {
			elems = append(elems, e)
		} else {
			missing = append(missing, seq)
		}
	}
	sort.Slice(elems, func(i, j int) bool { return elems[i].Seq < elems[j].Seq })
	return elems, missing, nil
}

// verify admits one stored base-chain copy: a frame that decodes and carries
// the label's seq, or a stripe manifest under its own label (returned for
// reassembly). A copy that fails comes back with a nil Ckpt.
func verify(key string, el storage.Stored) (Element, *ckpt.StripeFrame, error) {
	bad := Element{Seq: el.Seq, Replica: -1}
	if ckpt.IsStripe(el.Data) {
		man, err := ckpt.DecodeStripe(el.Data)
		switch {
		case err != nil:
			return bad, nil, err
		case !man.Manifest:
			return bad, nil, fmt.Errorf("recovery: bare stripe part stored at base key %s", key)
		case man.Seq != el.Seq:
			return bad, nil, fmt.Errorf("recovery: %s seq %d holds the manifest of seq %d", key, el.Seq, man.Seq)
		}
		return bad, man, nil
	}
	c, err := ckpt.Decode(el.Data)
	if err != nil {
		return bad, nil, err
	}
	if c.Seq != el.Seq {
		return bad, nil, fmt.Errorf("recovery: %s seq %d holds the frame of seq %d", key, el.Seq, c.Seq)
	}
	return Element{Seq: el.Seq, Data: el.Data, Size: int64(len(el.Data)), Ckpt: c}, nil, nil
}

// stripeParts reads every stripe key the admitted manifests name, as one
// batch: a copy is admitted when it decodes as a part, at its key's index of
// its key's count, under its own label. parts[stripeKey][seq] is the part.
func (rs ReplicaSet) stripeParts(ctx context.Context, key string, merged []storage.Stored, manifests map[int]*ckpt.StripeFrame) map[string]map[int]*ckpt.StripeFrame {
	type slot struct{ index, count int }
	var keys []string
	slots := make(map[string]slot)
	for _, el := range merged {
		man := manifests[el.Seq]
		if man == nil {
			continue
		}
		for i := 0; i < man.Count; i++ {
			stripeKey := key + storage.StripeSep + storage.StripeLabel(i, man.Count)
			if _, ok := slots[stripeKey]; !ok {
				slots[stripeKey] = slot{i, man.Count}
				keys = append(keys, stripeKey)
			}
		}
	}
	parts := make(map[string]map[int]*ckpt.StripeFrame, len(keys))
	rs.read(ctx, keys, func(k int, el storage.Stored) bool {
		want := slots[keys[k]]
		sf, err := ckpt.DecodeStripe(el.Data)
		if err != nil || sf.Manifest || sf.Index != want.index || sf.Count != want.count || sf.Seq != el.Seq {
			return false
		}
		if parts[keys[k]] == nil {
			parts[keys[k]] = make(map[int]*ckpt.StripeFrame)
		}
		parts[keys[k]][el.Seq] = sf
		return true
	})
	return parts
}

// reassemble decodes a striped element from its manifest and the batch's
// parts, where they lie: it carries no joined bytes (a nil Data), and its
// Size is the manifest's Total. One that cannot be decoded, or does not
// verify, has a nil Ckpt.
func reassemble(key string, man *ckpt.StripeFrame, parts map[string]map[int]*ckpt.StripeFrame) Element {
	bad := Element{Seq: man.Seq, Replica: -1}
	held := make([]*ckpt.StripeFrame, man.Count)
	for i := range held {
		if held[i] = parts[key+storage.StripeSep+storage.StripeLabel(i, man.Count)][man.Seq]; held[i] == nil {
			return bad
		}
	}
	c, err := ckpt.DecodeStriped(man, held)
	if err != nil || c.Seq != man.Seq {
		return bad
	}
	return Element{Seq: man.Seq, Size: man.Total, Ckpt: c}
}

// Restore replays Chain's union once, with RestoreLatestGood's rules; the
// report's Discarded also lists the seqs no replica stores.
func (rs ReplicaSet) Restore(ctx context.Context, key string) (*memsim.AddressSpace, *GoodReport, error) {
	elems, missing, err := rs.Chain(ctx, key)
	if err != nil {
		return nil, nil, err
	}
	if len(elems) == 0 {
		return nil, nil, fmt.Errorf("recovery: no replica holds a readable checkpoint of %s", key)
	}
	as, rep, err := replayLatestGood(elems)
	if err != nil {
		return nil, nil, err
	}
	rep.Discarded = append(rep.Discarded, missing...)
	sort.Ints(rep.Discarded)
	return as, rep, nil
}
