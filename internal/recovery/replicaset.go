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
// the read-side twin of the storage.FanOut its fetches run through. Its one
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

func (rs ReplicaSet) fetch(ctx context.Context, key string) ([]storage.ReplicaChain, error) {
	names, stores, err := rs.Place(key)
	if err != nil {
		return nil, err
	}
	return rs.Fan.Fetch(ctx, key, names, stores)
}

// Chain returns the per-seq union of key's chain across its replica set, in
// sequence order: one Element for every seq some replica stores, read from
// the first replica whose copy verifies (nil Ckpt: none did), striped
// elements reassembled. missing lists the seqs replicas list but none
// stores. Every chain key, base or stripe, is fetched once per call.
func (rs ReplicaSet) Chain(ctx context.Context, key string) (elems []Element, missing []int, err error) {
	chains, err := rs.fetch(ctx, key)
	if err != nil {
		return nil, nil, err
	}
	stripes := make(map[string]map[int]*ckpt.StripeFrame)
	found := make(map[int]Element) // by seq, for every seq some replica stores
	merged, source, unreadable := storage.Union(chains, func(el storage.Stored) bool {
		e, err := rs.verify(ctx, key, el, stripes)
		found[el.Seq] = e
		return err == nil
	})
	for i, el := range merged {
		e := found[el.Seq]
		e.Replica = source[i]
		elems = append(elems, e)
	}
	for _, seq := range unreadable {
		if e, stored := found[seq]; stored {
			elems = append(elems, e)
		} else {
			missing = append(missing, seq)
		}
	}
	sort.Slice(elems, func(i, j int) bool { return elems[i].Seq < elems[j].Seq })
	return elems, missing, nil
}

// verify decodes one stored copy into a replayable element — reassembled
// first when it is a stripe manifest — whose frame carries the label's seq;
// a copy that fails comes back with a nil Ckpt.
func (rs ReplicaSet) verify(ctx context.Context, key string, el storage.Stored, stripes map[string]map[int]*ckpt.StripeFrame) (Element, error) {
	bad, data := Element{Seq: el.Seq, Replica: -1}, el.Data
	if ckpt.IsStripe(data) {
		var err error
		if data, err = rs.reassemble(ctx, key, data, stripes); err != nil {
			return bad, err
		}
	}
	c, err := ckpt.Decode(data)
	if err != nil {
		return bad, err
	}
	if c.Seq != el.Seq {
		return bad, fmt.Errorf("recovery: %s seq %d holds the frame of seq %d", key, el.Seq, c.Seq)
	}
	return Element{Seq: el.Seq, Data: data, Ckpt: c}, nil
}

// reassemble rebuilds a striped element from its base-key manifest. stripes
// caches each stripe key's verified parts by seq, one fetch per call.
func (rs ReplicaSet) reassemble(ctx context.Context, key string, manifest []byte, stripes map[string]map[int]*ckpt.StripeFrame) ([]byte, error) {
	man, err := ckpt.DecodeStripe(manifest)
	if err != nil {
		return nil, err
	}
	if !man.Manifest {
		return nil, fmt.Errorf("recovery: bare stripe part stored at base key %s", key)
	}
	var parts []*ckpt.StripeFrame
	for i := 0; i < man.Count; i++ {
		stripeKey := key + storage.StripeSep + storage.StripeLabel(i, man.Count)
		held, fetched := stripes[stripeKey]
		if !fetched {
			held = rs.stripeParts(ctx, stripeKey, i, man.Count)
			stripes[stripeKey] = held
		}
		part := held[man.Seq]
		if part == nil {
			return nil, fmt.Errorf("recovery: no replica of %s holds an intact seq %d", stripeKey, man.Seq)
		}
		parts = append(parts, part)
	}
	return ckpt.ReassembleStripes(man, parts)
}

// stripeParts is the base chain's fetch and union over one stripe key: a
// copy is admitted when it decodes as a part, at this index of this count,
// under its own label. An unreachable replica set reads as holding nothing.
func (rs ReplicaSet) stripeParts(ctx context.Context, stripeKey string, index, count int) map[int]*ckpt.StripeFrame {
	held := make(map[int]*ckpt.StripeFrame)
	chains, err := rs.fetch(ctx, stripeKey)
	if err != nil {
		return held
	}
	storage.Union(chains, func(el storage.Stored) bool {
		sf, err := ckpt.DecodeStripe(el.Data)
		if err != nil || sf.Manifest || sf.Index != index || sf.Count != count || sf.Seq != el.Seq {
			return false
		}
		held[el.Seq] = sf
		return true
	})
	return held
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
