package exp

import (
	"errors"
	"sync/atomic"
	"testing"

	"aic/internal/par"
)

// The sweeps fan their cells out as par.For(0, cells, ...): every core,
// capped at the cell count. These tests hold that call shape to what the
// sweeps need of it.

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	const n = 100
	var counts [n]int32
	if err := par.For(0, n, func(_, i int) error {
		atomic.AddInt32(&counts[i], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestForEachPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := par.For(0, 50, func(_, i int) error {
		if i == 17 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestForEachAllWorkersFailNoDeadlock(t *testing.T) {
	// Every call fails: every worker must still stop and the sweep return.
	err := par.For(0, 500, func(_, i int) error { return errors.New("always") })
	if err == nil {
		t.Fatal("expected an error")
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := par.For(0, 0, func(int, int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := par.For(0, -3, func(int, int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachSingleItem(t *testing.T) {
	ran := false
	if err := par.For(0, 1, func(_, i int) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("single item not run")
	}
}
