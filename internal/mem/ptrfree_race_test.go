package mem

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// heapHits is the flagging scan's callback as the sweeper shapes it: the
// number of words in [HeapBase, HeapLimit).
func heapHits(words []uint64) (hits int) {
	for i := range words {
		if IsHeapAddr(atomic.LoadUint64(&words[i])) {
			hits++
		}
	}
	return hits
}

// ptrFreeEpisodes is the oracle for the pointer-free half of the store()
// ordering contract. Each episode starts from a page whose word 0 is zero
// and whose pointer-free bit is set by a completed flagging scan. A writer
// then stores into word 0 through w, alternating a heap-range word with a
// zero, while the scanner runs the flagging scan over page 0 of scanned
// concurrently. Word 0 is the first word the scan reads, so a scan that
// published its bit after the read would leave the widest possible window
// for a store to land unseen. At quiescence a pointer-free bit that
// survived over a heap-range word is exactly the skip that would hide a
// dangling pointer from the next sweep.
func ptrFreeEpisodes(t *testing.T, w, scanned *Region, rounds int64) {
	t.Helper()
	addr := w.Base()
	var start, finished atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); i <= rounds; i++ {
			for start.Load() < i {
				runtime.Gosched()
			}
			v := uint64(0)
			if i%2 == 1 {
				v = HeapBase + uint64(i)*16
			}
			if err := w.Store64(addr, v); err != nil {
				t.Error(err)
			}
			finished.Store(i)
		}
	}()
	// A failing episode releases the writer before the test stops.
	defer func() {
		start.Store(rounds)
		wg.Wait()
	}()
	for i := int64(1); i <= rounds; i++ {
		if err := w.Store64(addr, 0); err != nil {
			t.Fatal(err)
		}
		scanned.ScanPageWordsPtrFree(0, heapHits)
		if !scanned.PagePtrFree(0) {
			t.Fatal("a quiescent scan of a pointer-free page left it unflagged")
		}
		start.Store(i)
		scanned.ScanPageWordsPtrFree(0, heapHits)
		for finished.Load() < i {
			runtime.Gosched()
		}
		v, err := scanned.Load64(scanned.Base())
		if err != nil {
			t.Fatal(err)
		}
		if scanned.PagePtrFree(0) && IsHeapAddr(v) {
			t.Fatalf("episode %d: pointer-free bit survived over heap-range word %#x", i, v)
		}
	}
}

// TestPtrFreeVsStoreOrdering holds the pointer-free bit's ordering under
// -race (make race-hot): the scan sets the bit before it reads the words
// and withdraws it after a hit, and every store clears it after landing,
// so no interleaving leaves the bit over an unseen pointer. The alias case
// stores through a virtual alias, which must retire the parent's bit; the
// alias's own pages are never flagged.
func TestPtrFreeVsStoreOrdering(t *testing.T) {
	const rounds = 20_000
	t.Run("direct", func(t *testing.T) {
		as := NewAddressSpace()
		r, _ := as.Map(KindHeap, PageSize, true)
		ptrFreeEpisodes(t, r, r, rounds)
	})
	t.Run("alias", func(t *testing.T) {
		as := NewAddressSpace()
		parent, _ := as.Map(KindHeap, 2*PageSize, true)
		alias, err := as.MapAlias(parent, 0, PageSize)
		if err != nil {
			t.Fatal(err)
		}
		ptrFreeEpisodes(t, alias, parent, rounds)
		alias.ScanPageWordsPtrFree(0, heapHits)
		if alias.PagePtrFree(0) {
			t.Fatal("alias page flagged pointer-free")
		}
	})
	t.Run("stress", func(t *testing.T) {
		// Free-running writers over four pages against a looping scanner:
		// -race coverage for the lock-CAS/store-CAS pair, then the same
		// end-state oracle on every page.
		as := NewAddressSpace()
		r, _ := as.Map(KindHeap, 4*PageSize, true)
		var wg sync.WaitGroup
		var done atomic.Bool
		for g := uint64(0); g < 2; g++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				rng := seed
				for i := 0; i < rounds; i++ {
					rng = rng*6364136223846793005 + 1442695040888963407
					v := uint64(0)
					if rng>>60 < 4 {
						v = HeapBase + rng>>40
					}
					if err := r.Store64(r.Base()+(rng>>20)%(4*PageSize)&^7, v); err != nil {
						t.Error(err)
						return
					}
				}
			}(g*2654435761 + 1)
		}
		go func() {
			wg.Wait()
			done.Store(true)
		}()
		for !done.Load() {
			for p := 0; p < 4; p++ {
				r.ScanPageWordsPtrFree(p, heapHits)
			}
		}
		for p := 0; p < 4; p++ {
			if !r.PagePtrFree(p) {
				continue
			}
			r.ScanPageWords(p, func(words []uint64) {
				if n := heapHits(words); n != 0 {
					t.Errorf("page %d: pointer-free bit over %d heap-range words", p, n)
				}
			})
		}
	})
}
