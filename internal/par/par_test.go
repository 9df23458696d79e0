package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestFor: at GOMAXPROCS 1 and 4, every worker knob, and 100 items or
// one, Workers follows its rule, each index runs exactly once on a worker
// below Workers' count, the lowest failing index's error comes back when
// two fail, a loop where every index fails returns, and an empty or
// negative item count never calls fn.
func TestFor(t *testing.T) {
	const many = 100
	for _, procs := range []int{1, 4} {
		for _, n := range []int{-2, 0, 1, 3, many + 5} {
			t.Run(fmt.Sprintf("procs=%d/workers=%d", procs, n), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				for _, items := range []int{many, 1} {
					workers := Workers(n, items)
					want := n
					if n <= 0 {
						want = procs
					}
					if want = min(want, items); workers != want {
						t.Fatalf("Workers(%d, %d) = %d, want %d", n, items, workers, want)
					}

					ran := make([]atomic.Int32, items)
					var badW atomic.Int32
					badW.Store(-1)
					if err := For(n, items, func(w, i int) error {
						if w < 0 || w >= workers {
							badW.Store(int32(w))
						}
						ran[i].Add(1)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					if w := badW.Load(); w >= 0 {
						t.Fatalf("items=%d: worker %d outside [0, %d)", items, w, workers)
					}
					for i := range ran {
						if c := ran[i].Load(); c != 1 {
							t.Fatalf("items=%d: index %d ran %d times", items, i, c)
						}
					}

					// With more than one worker, index 37 fails only after
					// 90 has: the lowest index wins, not the first to fail.
					if items == many {
						failed90 := make(chan struct{})
						err := For(n, items, func(_, i int) error {
							switch i {
							case 37:
								if workers > 1 {
									<-failed90
								}
							case 90:
								close(failed90)
							default:
								return nil
							}
							return fmt.Errorf("index %d", i)
						})
						if err == nil || err.Error() != "index 37" {
							t.Fatalf("got %v, want index 37", err)
						}
					}

					err := For(n, items, func(_, i int) error { return fmt.Errorf("index %d", i) })
					if err == nil || err.Error() != "index 0" {
						t.Fatalf("items=%d, all failing: got %v, want index 0", items, err)
					}
				}

				for _, empty := range []int{0, -3} {
					if err := For(n, empty, func(int, int) error {
						t.Error("fn called")
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}
