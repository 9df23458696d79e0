package remote

import (
	"errors"
	"testing"

	"aic/internal/storage"
)

// TestNulProcRejectedOverWire is the regression test for the old
// NUL-delimited staging keys: "a\x00b" used to truncate at the NUL when
// the key was split back apart, so two distinct procs could alias one
// staging slot. Struct keys made the encoding moot; the server now also
// refuses NUL-bearing (and otherwise invalid) proc names at PutBegin, and
// the sentinel survives the wire round trip.
func TestNulProcRejectedOverWire(t *testing.T) {
	back := storage.NewMemStore(storage.Target{})
	addr := startServer(t, back)
	r := NewStore(addr, testConfig())
	defer r.Close()

	for _, proc := range []string{"a\x00b", "", "../evil", "a/b"} {
		err := r.Put(ctx, proc, 0, []byte("payload"))
		if !errors.Is(err, storage.ErrBadProcName) {
			t.Fatalf("Put(%q) = %v, want ErrBadProcName", proc, err)
		}
	}

	// The connection survived the rejections: a valid Put on the same
	// client still commits.
	if err := r.Put(ctx, "ok", 0, []byte("payload")); err != nil {
		t.Fatalf("valid Put after rejections: %v", err)
	}
	if got, ok, err := storage.ReadElem(ctx, back, "ok", 0); err != nil || !ok || string(got) != "payload" {
		t.Fatalf("committed object missing: %q ok=%v err=%v", got, ok, err)
	}
}

// TestStagingKeysDistinguishProcSeq pins that (proc, seq) pairs whose old
// string encodings could collide stage and commit independently.
func TestStagingKeysDistinguishProcSeq(t *testing.T) {
	back := storage.NewMemStore(storage.Target{})
	addr := startServer(t, back)
	r := NewStore(addr, testConfig())
	defer r.Close()

	// "p-1" seq 0 and "p" seq 10 etc. — names that concatenation-style
	// keys historically risked aliasing.
	if err := r.Put(ctx, "p-1", 0, []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(ctx, "p", 0, []byte("beta")); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := storage.ReadElem(ctx, back, "p-1", 0); !ok || string(got) != "alpha" {
		t.Fatalf("p-1/0 = %q ok=%v", got, ok)
	}
	if got, ok, _ := storage.ReadElem(ctx, back, "p", 0); !ok || string(got) != "beta" {
		t.Fatalf("p/0 = %q ok=%v", got, ok)
	}
}
