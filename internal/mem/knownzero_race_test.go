package mem

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestKnownZeroVsStoreOrdering is the oracle for the known-zero half of the
// store() ordering contract, mirroring TestDirtySetVsClearOrdering: one
// mutator alternates full-page Zero (which may set the known-zero bit) with
// Store64 (whose dirty CAS must retire it), while a sweeper-shaped thread
// concurrently consumes dirty bits, reads the known-zero bit, and checks the
// one invariant that makes skipping safe:
//
//	a page is never dirty and known-zero in the same page-state word.
//
// The dirty|known-zero exclusion is what routes every page the skip could
// have mis-judged to the soft-dirty re-scan (which never consults the map).
// The end-state oracle then pins the set/clear ordering itself: once the
// mutator stops, a final look must find either the Zero outcome (word 0,
// known-zero allowed) or the Store outcome (word = last value, known-zero
// clear) — a surviving known-zero bit over a non-zero word is exactly the
// lost-update interleaving the zeroRange ordering forbids. Run under -race
// via `make race-hot` this also proves the bitmap primitives race-free.
func TestKnownZeroVsStoreOrdering(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, PageSize, true)
	addr := r.Base()
	as.ClearSoftDirty()

	const rounds = 100_000
	var wg sync.WaitGroup
	var mutatorDone atomic.Bool
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint64(1); i <= rounds; i++ {
			if i%2 == 0 {
				if err := as.Zero(addr, PageSize); err != nil {
					t.Error(err)
					return
				}
			} else {
				if err := r.Store64(addr, i); err != nil {
					t.Error(err)
					return
				}
			}
		}
		mutatorDone.Store(true)
	}()
	go func() {
		defer wg.Done()
		for !mutatorDone.Load() {
			// The raw page-state word is one atomic load, so this checks
			// the exclusion at a single instant — not across two getters.
			if bits := r.pages[0].Load(); bits&pageDirty != 0 && bits&pageKnownZero != 0 {
				t.Error("page simultaneously dirty and known-zero")
				return
			}
			// Exercise the sweeper's consume path against the zeroer's
			// exact-accounting consume; both CAS, so neither loses counts.
			r.TestClearPageDirty(0)
			_ = r.PageKnownZero(0)
		}
	}()
	wg.Wait()

	v, err := r.Load64(addr)
	if err != nil {
		t.Fatal(err)
	}
	kz := r.PageKnownZero(0)
	if rounds%2 == 0 {
		// Last op was Zero: the word must read 0. (The known-zero bit may
		// legitimately be either value: the racing checker cannot clear it,
		// but publishKnownZero declines to set it if the checker's consume
		// raced the zero's own dirty consume.)
		if v != 0 {
			t.Fatalf("after final Zero: word = %#x, want 0 (kz=%v)", v, kz)
		}
	} else {
		if v != rounds {
			t.Fatalf("after final Store: word = %d, want %d", v, rounds)
		}
	}
	if kz && v != 0 {
		t.Fatalf("known-zero bit set over non-zero word %#x — the skip would leak a stale pointer", v)
	}
	// The summary must agree with the page bit wherever the page bit is set
	// (summary-set is a hint, but summary-clear with the bit set would make
	// the sweep scan... which is safe; bit-set with summary-clear only costs
	// the skip. Check the truth direction used by scanChunk: a skip requires
	// both, so after quiescence a set bit should be summarised.)
	if kz && r.KnownZeroSummaryWord(0)&1 == 0 {
		t.Fatal("known-zero page bit set but summary bit clear after quiescence")
	}
}

// TestKnownZeroSpanningZeroConcurrentStores drives one page-spanning Zero
// over a region while a mutator stores into neighbouring pages: -race
// coverage for the multi-page clear (per-page locking, known-zero
// publication) against the store fast path, plus the end-state zero oracle
// on the cleared range.
func TestKnownZeroSpanningZeroConcurrentStores(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, 8*PageSize, true)
	base := r.Base()

	var wg sync.WaitGroup
	var done atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Mutator confined to the last two pages; Zero clears the rest.
		for i := uint64(1); !done.Load(); i++ {
			if err := as.Store64(base+6*PageSize+(i%64)*8, i); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for round := 0; round < 2_000; round++ {
		// Touch the target pages, then zero them in one clear that starts
		// and ends mid-page, so whole pages sit between two partial ones.
		for p := uint64(0); p < 6; p++ {
			if err := as.Store64(base+p*PageSize+64, uint64(round)+1); err != nil {
				t.Fatal(err)
			}
		}
		if err := as.Store64(base+8, uint64(round)+1); err != nil {
			t.Fatal(err)
		}
		if err := as.Zero(base+64, 6*PageSize-64); err != nil {
			t.Fatal(err)
		}
		for p := uint64(0); p < 6; p++ {
			if v, err := as.Load64(base + p*PageSize + 64); err != nil || v != 0 {
				t.Fatalf("round %d: page %d not zero after Zero (v=%#x err=%v)", round, p, v, err)
			}
			if p > 0 && !r.PageKnownZero(int(p)) {
				t.Fatalf("round %d: page %d not known-zero after a whole-page clear", round, p)
			}
		}
		// The partial first page keeps its untouched head word, so it must
		// not be marked known-zero.
		if v, err := as.Load64(base + 8); err != nil || v != uint64(round)+1 {
			t.Fatalf("round %d: word below the cleared range = %#x (err=%v), want %d", round, v, err, round+1)
		}
		if r.PageKnownZero(0) {
			t.Fatalf("round %d: partially cleared page 0 marked known-zero", round)
		}
	}
	done.Store(true)
	wg.Wait()
}
