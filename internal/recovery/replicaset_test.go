package recovery

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"testing"

	"aic/internal/ckpt"
	"aic/internal/storage"
)

// darkStore fails every operation — a peer that stayed dark.
type darkStore struct{ storage.Store }

var errDark = errors.New("peer dark")

func (darkStore) Get(ctx context.Context, proc string) ([]storage.Stored, []int, error) {
	return nil, nil, errDark
}

// fixedSet is a ReplicaSet over a fixed store list, like CheckpointDir's.
func fixedSet(stores ...storage.Store) ReplicaSet {
	names := make([]string, len(stores))
	for i := range names {
		names[i] = strconv.Itoa(i)
	}
	return ReplicaSet{Fan: new(storage.FanOut), Place: func(string) ([]string, []storage.Store, error) {
		return names, stores, nil
	}}
}

// holding builds a store holding the given elements of chain, each passed
// through damage (nil keeps it intact).
func holding(t *testing.T, name string, chain []storage.Stored, keep func(i int) bool, damage func(i int, data []byte) []byte) *storage.FSStore {
	t.Helper()
	st := storage.NewMemStore(storage.Target{Name: name})
	for i, s := range chain {
		if !keep(i) {
			continue
		}
		data := s.Data
		if damage != nil {
			data = damage(i, data)
		}
		if err := st.Put(ctx, "p0", s.Seq, data); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func all(int) bool { return true }

func TestReplicaSetRestoreSkipsDarkAndDamagedReplicas(t *testing.T) {
	chain, images := buildStoredChain(t)
	full := holding(t, "full", chain, all, nil)
	lagged := holding(t, "lagged", chain, func(i int) bool { return i < 2 }, nil)
	// The damaged peer holds only an intact anchor.
	damaged := holding(t, "damaged", chain, all, func(i int, data []byte) []byte {
		if i >= 1 {
			return data[:8]
		}
		return data
	})
	as, rep, err := fixedSet(darkStore{}, damaged, lagged, full).Restore(ctx, "p0")
	if err != nil {
		t.Fatal(err)
	}
	if rep.LastSeq != 3 || !as.Equal(images[3]) {
		t.Fatalf("restored through seq %d, want 3 with the newest image", rep.LastSeq)
	}
	// Seq 0 verified on the damaged peer (1), seq 1 on the lagged one (2),
	// the rest only on the full one (3): no single replica carried the replay.
	if rep.Replica != -1 || len(rep.Corrupt) != 0 {
		t.Fatalf("report = %+v, want a clean replay drawn from several replicas", rep)
	}
}

func TestReplicaSetRestoreSurvivorsOnly(t *testing.T) {
	chain, images := buildStoredChain(t)
	survivor := holding(t, "survivor", chain, all, nil)
	// Two peers dark, one empty, one survivor: the restore must still land,
	// and name the survivor as the one replica it read.
	empty := storage.NewMemStore(storage.Target{Name: "empty"})
	as, rep, err := fixedSet(darkStore{}, empty, survivor, darkStore{}).Restore(ctx, "p0")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replica != 2 || rep.LastSeq != 3 || !as.Equal(images[3]) {
		t.Fatalf("rep=%+v", rep)
	}
}

func TestReplicaSetRestoreAllDarkOrEmpty(t *testing.T) {
	_, _, err := fixedSet(darkStore{}, darkStore{}).Restore(ctx, "p0")
	if !errors.Is(err, errDark) {
		t.Fatalf("restore with every peer dark = %v, want the peers' causes", err)
	}
	if _, _, err := fixedSet().Restore(ctx, "p0"); err == nil {
		t.Fatal("restore with no stores succeeded")
	}
	empty := storage.NewMemStore(storage.Target{Name: "empty"})
	if _, _, err := fixedSet(empty).Restore(ctx, "p0"); err == nil {
		t.Fatal("restore of a chain no replica holds succeeded")
	}
}

// The union is per seq and verified: a gap split across replicas restores in
// full, a flipped first copy is passed over for the next replica's instead
// of rewinding the restore, and a frame stored under another seq's label
// never verifies.
func TestReplicaSetLatestGoodUnion(t *testing.T) {
	chain, images := buildStoredChain(t)
	flip := func(at int) func(int, []byte) []byte {
		return func(i int, data []byte) []byte {
			if i != at {
				return data
			}
			out := append([]byte(nil), data...)
			out[len(out)/2] ^= 0x40
			return out
		}
	}
	for _, tc := range []struct {
		name     string
		replicas []storage.Store
		lastSeq  int
		replica  int
		corrupt  []int
	}{
		{"gap split", []storage.Store{
			holding(t, "a", chain, func(i int) bool { return i != 3 }, nil),
			holding(t, "b", chain, func(i int) bool { return i != 2 }, nil),
		}, 3, -1, nil},
		{"first copy flipped", []storage.Store{
			holding(t, "a", chain, all, flip(3)),
			holding(t, "b", chain, all, nil),
		}, 3, -1, nil},
		{"flipped everywhere", []storage.Store{
			holding(t, "a", chain, all, flip(3)),
			holding(t, "b", chain, all, flip(3)),
		}, 2, 0, []int{3}},
		{"mislabelled frame", []storage.Store{
			// Replica a stores seq 2's frame under label 3 as well.
			holding(t, "a", chain, all, func(i int, data []byte) []byte {
				if i == 3 {
					return chain[2].Data
				}
				return data
			}),
		}, 2, 0, []int{3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			as, rep, err := fixedSet(tc.replicas...).Restore(ctx, "p0")
			if err != nil {
				t.Fatal(err)
			}
			if rep.LastSeq != tc.lastSeq || rep.Replica != tc.replica || len(rep.Corrupt) != len(tc.corrupt) {
				t.Fatalf("report = %+v, want LastSeq %d Replica %d Corrupt %v", rep, tc.lastSeq, tc.replica, tc.corrupt)
			}
			if !as.Equal(images[tc.lastSeq]) {
				t.Fatalf("image differs from the reference at seq %d", tc.lastSeq)
			}
		})
	}
}

// A striped element is decoded from its parts and counted at its stored
// size, and a manifest whose Count is out of bounds — its CRC is valid, as
// any peer can compute one — is rejected before any stripe key is named, so
// the restore rewinds past its seq.
func TestReplicaSetStripedAndForgedManifests(t *testing.T) {
	chain, images := buildStoredChain(t)
	for _, count := range []int{1025, 1 << 40} {
		t.Run(strconv.Itoa(count), func(t *testing.T) {
			st := storage.NewMemStore(storage.Target{Name: "a"})
			put := func(key string, seq int, data []byte) {
				if err := st.Put(ctx, key, seq, data); err != nil {
					t.Fatal(err)
				}
			}
			put("p0", 0, chain[0].Data)
			put("p0", 1, chain[1].Data)
			man, parts, err := ckpt.SplitStripes(2, chain[2].Data, 3)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range parts {
				put("p0"+storage.StripeSep+storage.StripeLabel(i, len(parts)), 2, p)
			}
			put("p0", 2, man)
			put("p0", 3, ckpt.EncodeStripeManifest(3, count, 1<<41, 0))

			set := fixedSet(st)
			elems, _, err := set.Chain(ctx, "p0")
			if err != nil {
				t.Fatal(err)
			}
			if e := elems[2]; e.Ckpt == nil || e.Data != nil || e.Size != int64(len(chain[2].Data)) || !bytes.Equal(e.Ckpt.Encode(), chain[2].Data) {
				t.Fatalf("striped element = %+v, want it decoded from its parts at its stored size", e)
			}
			as, rep, err := set.Restore(ctx, "p0")
			if err != nil {
				t.Fatal(err)
			}
			var want int64
			for _, s := range chain[:3] {
				want += int64(len(s.Data))
			}
			if rep.LastSeq != 2 || len(rep.Corrupt) != 1 || rep.Corrupt[0] != 3 || rep.Bytes != want || rep.ReplicaBytes[0] != want {
				t.Fatalf("report = %+v, want seq 3 corrupt and %d bytes replayed through seq 2", rep, want)
			}
			if !as.Equal(images[2]) {
				t.Fatal("image differs from the reference at seq 2")
			}
		})
	}
}
