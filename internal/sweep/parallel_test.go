package sweep

import (
	"bytes"
	"iter"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

// TestParallelRunsEveryItemOnce: for every worker count and item counts
// below, at and far above it, each item reaches exactly one worker, worker
// ids stay in range and each id runs one body.
func TestParallelRunsEveryItemOnce(t *testing.T) {
	_, _, s := setup(t, 0)
	for workers := 1; workers <= 7; workers++ {
		for _, n := range []int{0, 1, workers - 1, 1000} {
			hits := make([]atomic.Int32, n)
			bodies := make([]atomic.Int32, workers)
			s.Parallel(workers, n, func(w int, items iter.Seq[int]) {
				if w < 0 || w >= workers {
					t.Errorf("workers %d n %d: worker id %d out of range", workers, n, w)
					return
				}
				bodies[w].Add(1)
				for i := range items {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Errorf("workers %d n %d: item %d ran %d times, want 1", workers, n, i, got)
				}
			}
			for w := range bodies {
				if got := bodies[w].Load(); got > 1 {
					t.Errorf("workers %d n %d: worker %d ran %d bodies, want at most 1", workers, n, w, got)
				}
			}
		}
	}
}

// TestParallelOneWorkerInOrder: with one worker every item arrives in index
// order on the caller's goroutine — what Synchronous recycle's bit-for-bit
// reproducibility rests on.
func TestParallelOneWorkerInOrder(t *testing.T) {
	_, _, s := setup(t, 0)
	caller := goid()
	var got []int
	s.Parallel(1, 100, func(w int, items iter.Seq[int]) {
		if w != 0 {
			t.Errorf("worker id %d, want 0", w)
		}
		if id := goid(); id != caller {
			t.Errorf("body ran on goroutine %d, want the caller's %d", id, caller)
		}
		for i := range items {
			got = append(got, i)
		}
	})
	if len(got) != 100 {
		t.Fatalf("ran %d items, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d arrived at position %d: %v", v, i, got)
		}
	}
}

// TestParallelStealsFromBlockedWorker blocks worker 0 after its first item
// until every other item has run: the items left in its stripe can only be
// finished by the other workers stealing them.
func TestParallelStealsFromBlockedWorker(t *testing.T) {
	_, _, s := setup(t, 0)
	for _, workers := range []int{2, 3, 7} {
		const n = 1000
		var done atomic.Int32
		allOthers := make(chan struct{})
		var once sync.Once
		s.Parallel(workers, n, func(w int, items iter.Seq[int]) {
			for range items {
				if int(done.Add(1)) == n-1 {
					once.Do(func() { close(allOthers) })
				}
				if w != 0 {
					continue
				}
				select {
				case <-allOthers:
				case <-time.After(5 * time.Second):
					t.Errorf("workers %d: worker 0 blocked after one item; the others ran %d of the %d left",
						workers, done.Load()-1, n-1)
					return
				}
			}
		})
		if got := done.Load(); got != n {
			t.Errorf("workers %d: %d items ran, want %d", workers, got, n)
		}
	}
}
