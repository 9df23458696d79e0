// Package par is the one bounded fan-out for CPU work: the page encode and
// decode of the Xdelta3-PA codec, the dedup chunk hashing and reads, and
// the experiment sweeps all run their independent items through For. I/O
// fan-out, one goroutine per call, is storage.JoinAll / JoinByPeer.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the one worker-count rule: n ≤ 0 selects GOMAXPROCS, and the
// count never exceeds items and is at least 1.
func Workers(n, items int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return max(1, min(n, items))
}

// For runs fn(w, i) for every index i in [0, items) on Workers(workers,
// items) goroutines, w naming the one that runs it. The calling goroutine
// is worker 0, and a single worker runs every index inline. Indexes are
// claimed in ascending order and every claimed index is finished, so after
// a failure no new index is claimed and the error of the lowest failing
// index is returned.
func For(workers, items int, fn func(w, i int) error) error {
	workers = Workers(workers, items)
	if workers == 1 {
		for i := 0; i < items; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	l := &loop{items: items, fn: fn, first: items}
	l.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer l.wg.Done()
			l.work(w)
		}()
	}
	l.work(0)
	l.wg.Wait()
	return l.err
}

// loop is the state For's workers share.
type loop struct {
	items  int
	fn     func(w, i int) error
	next   atomic.Int64
	failed atomic.Bool
	wg     sync.WaitGroup // the workers For started; not the caller
	mu     sync.Mutex
	first  int   // the lowest failing index, under mu
	err    error // its error, under mu
}

func (l *loop) work(w int) {
	for !l.failed.Load() {
		i := int(l.next.Add(1)) - 1
		if i >= l.items {
			return
		}
		if err := l.fn(w, i); err != nil {
			l.mu.Lock()
			if i < l.first {
				l.first, l.err = i, err
			}
			l.mu.Unlock()
			l.failed.Store(true)
			return
		}
	}
}
