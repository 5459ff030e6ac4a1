package sweep

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"minesweeper/internal/mem"
)

// TestCountDirtyPages covers the pre-clean budget heuristic's input.
func TestCountDirtyPages(t *testing.T) {
	as, _, s := setup(t, 0)
	heap, _ := as.Map(mem.KindHeap, 8*mem.PageSize, true)
	as.ClearSoftDirty()
	if n := s.CountDirtyPages(); n != 0 {
		t.Fatalf("CountDirtyPages after clear = %d, want 0", n)
	}
	for _, p := range []int{1, 3, 6} {
		if err := as.Store64(heap.PageAddr(p)+8, 1); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.CountDirtyPages(); n != 3 {
		t.Fatalf("CountDirtyPages = %d, want 3", n)
	}
}

// TestMarkDirtyClearConsumesBits: a pre-clean round marks pointers on dirty
// pages, clears the bits it consumed, and a second round scans nothing.
func TestMarkDirtyClearConsumesBits(t *testing.T) {
	as, marks, s := setup(t, 0)
	heap, _ := as.Map(mem.KindHeap, 4*mem.PageSize, true)
	target := heap.Base() + 0x40
	as.ClearSoftDirty()

	if err := as.Store64(heap.PageAddr(2)+16, target); err != nil {
		t.Fatal(err)
	}
	ps := s.Mark(DirtyTake)
	if ps.PagesScanned != 1 {
		t.Fatalf("pre-clean scanned %d pages, want 1 (only the written page is dirty)", ps.PagesScanned)
	}
	if !marks.Test(target) {
		t.Fatal("pre-clean round missed pointer on dirty page")
	}
	if n := s.CountDirtyPages(); n != 0 {
		t.Fatalf("dirty pages after pre-clean = %d, want 0", n)
	}
	if ps2 := s.Mark(DirtyTake); ps2.PagesScanned != 0 {
		t.Fatalf("second pre-clean scanned %d pages, want 0", ps2.PagesScanned)
	}
	// A fresh write re-dirties the page for the next round.
	if err := as.Store64(heap.PageAddr(2)+24, 1); err != nil {
		t.Fatal(err)
	}
	if ps3 := s.Mark(DirtyTake); ps3.PagesScanned != 1 {
		t.Fatalf("post-rewrite pre-clean scanned %d pages, want 1", ps3.PagesScanned)
	}
}

// TestMarkDirtyLeavesBits: the STW variant filters on the dirty bit without
// consuming it (the next sweep's ClearSoftDirty resets the cycle).
func TestMarkDirtyLeavesBits(t *testing.T) {
	as, _, s := setup(t, 0)
	heap, _ := as.Map(mem.KindHeap, 4*mem.PageSize, true)
	as.ClearSoftDirty()
	if err := as.Store64(heap.PageAddr(1)+8, 1); err != nil {
		t.Fatal(err)
	}
	if ps := s.Mark(Dirty); ps.PagesScanned != 1 {
		t.Fatalf("MarkDirty scanned %d pages, want 1", ps.PagesScanned)
	}
	if n := s.CountDirtyPages(); n != 1 {
		t.Fatalf("dirty pages after MarkDirty = %d, want 1 (bit must survive)", n)
	}
}

// TestMarkAllClearTakesReadPages runs the mostly-concurrent full pass on pages
// left dirty without ClearSoftDirty: the pages it reads come out clean, the
// dirty count falls by exactly their number, a known-zero page it skipped
// stays known-zero, and the re-scan behind it reads only the pages stored to
// after the pass.
func TestMarkAllClearTakesReadPages(t *testing.T) {
	as, marks, s := setup(t, 0)
	heap, _ := as.Map(mem.KindHeap, 8*mem.PageSize, true)
	stored := []int{1, 3, 6}
	for _, p := range stored {
		if err := as.Store64(heap.PageAddr(p)+8, heap.Base()+uint64(p)*0x40); err != nil {
			t.Fatal(err)
		}
	}
	before := s.CountDirtyPages()
	ps := s.Mark(FullTake)
	if ps.PagesScanned != uint64(len(stored)) {
		t.Fatalf("full pass read %d pages, want %d (the rest are known-zero)", ps.PagesScanned, len(stored))
	}
	for _, p := range stored {
		if heap.PageDirty(p) {
			t.Errorf("page %d still dirty after the pass read it", p)
		}
		if !marks.Test(heap.Base() + uint64(p)*0x40) {
			t.Errorf("page %d's pointer not marked", p)
		}
	}
	if after := s.CountDirtyPages(); before-after != uint64(len(stored)) {
		t.Fatalf("dirty pages %d -> %d, want a fall of exactly %d", before, after, len(stored))
	}
	if !heap.PageKnownZero(0) || ps.KnownZeroPages != 8-uint64(len(stored)) {
		t.Fatalf("known-zero page 0: still known-zero %v, pass skipped %d known-zero pages, want true and %d",
			heap.PageKnownZero(0), ps.KnownZeroPages, 8-len(stored))
	}

	late := heap.Base() + 0x7f0
	for _, p := range []int{3, 4} {
		if err := as.Store64(heap.PageAddr(p)+16, late); err != nil {
			t.Fatal(err)
		}
	}
	dp := s.Mark(Dirty)
	if dp.PagesScanned != 2 {
		t.Fatalf("re-scan read %d pages, want 2 (only the pages stored to after the pass)", dp.PagesScanned)
	}
	if !marks.Test(late) {
		t.Fatal("re-scan missed the pointer stored after the pass")
	}
}

// TestMarkAllClearKeepsSkippedDirtyBit: a page the mostly-concurrent full
// pass skips as pointer-free keeps its dirty bit, because the pass did not
// read it.
func TestMarkAllClearKeepsSkippedDirtyBit(t *testing.T) {
	as, _, s := setup(t, 0)
	heap, _ := as.Map(mem.KindHeap, mem.PageSize, true)
	if err := as.Store64(heap.Base()+8, 1); err != nil {
		t.Fatal(err)
	}
	s.Mark(Full) // reads the page and flags it pointer-free; dirty stays
	if !heap.PagePtrFree(0) || !heap.PageDirty(0) {
		t.Fatalf("setup: pointer-free %v dirty %v, want both", heap.PagePtrFree(0), heap.PageDirty(0))
	}
	ps := s.Mark(FullTake)
	if ps.PtrFreePages != 1 || ps.PagesScanned != 0 {
		t.Fatalf("pass skipped %d pointer-free pages and read %d, want 1 and 0", ps.PtrFreePages, ps.PagesScanned)
	}
	if !heap.PageDirty(0) || s.CountDirtyPages() != 1 {
		t.Fatalf("skipped page dirty %v, dirty count %d, want true and 1", heap.PageDirty(0), s.CountDirtyPages())
	}
}

// TestCommitKeepsResidentDirtyPage: a commit over a page already resident
// keeps the dirty bit of a store made since ClearSoftDirty, so the
// stop-the-world re-scan still reads the store.
func TestCommitKeepsResidentDirtyPage(t *testing.T) {
	as, marks, s := setup(t, 0)
	heap, _ := as.Map(mem.KindHeap, 4*mem.PageSize, true)
	target := heap.Base() + 0x40
	as.ClearSoftDirty()
	if err := as.Store64(heap.PageAddr(1)+8, target); err != nil {
		t.Fatal(err)
	}
	if err := as.Commit(heap.PageAddr(1), mem.PageSize, mem.ProtRW); err != nil {
		t.Fatal(err)
	}
	if n := s.CountDirtyPages(); n != 1 {
		t.Fatalf("dirty pages after the commit = %d, want 1", n)
	}
	if ps := s.Mark(Dirty); ps.PagesScanned != 1 {
		t.Fatalf("re-scan read %d pages, want 1", ps.PagesScanned)
	}
	if !marks.Test(target) {
		t.Fatal("re-scan missed the store the commit kept")
	}
}

// TestMarkAllClearUnderStores runs the mostly-concurrent pipeline —
// ClearSoftDirty, the taking full pass with writers live, then the re-scan
// with the writers stopped — and requires every heap-range word in memory at
// the stop to be marked: a store the full pass took the dirty bit of but did
// not read would leave its pointer unmarked. The writers store to eight
// words spread over each page, so a store often lands behind the pass's read
// of its page. Under -race via make race-hot.
func TestMarkAllClearUnderStores(t *testing.T) {
	as, marks, s := setup(t, 1)
	const pages, slots = 16, 8
	heap, _ := as.Map(mem.KindHeap, pages*mem.PageSize, true)
	slot := func(i int) uint64 { // word (i%slots)*WordsPerPage/slots of page i/slots
		return heap.PageAddr(i/slots) + uint64(i%slots)*mem.PageSize/slots
	}
	for round := 0; round < 500; round++ {
		as.ClearSoftDirty()
		marks.ClearAll()
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for !stop.Load() {
					v := uint64(0)
					if rng.Intn(4) != 0 {
						v = heap.Base() + uint64(rng.Intn(pages*mem.PageSize/16))*16
					}
					if err := as.Store64(slot(rng.Intn(pages*slots)), v); err != nil {
						t.Error(err)
						return
					}
				}
			}(int64(round*2 + w))
		}
		s.Mark(FullTake)
		stop.Store(true)
		wg.Wait()
		s.Mark(Dirty)
		for i := 0; i < pages*slots; i++ {
			v, err := as.Load64(slot(i))
			if err != nil {
				t.Fatal(err)
			}
			if mem.IsHeapAddr(v) && !marks.Test(v) {
				t.Fatalf("round %d: %#x holds %#x, which neither the full pass nor the re-scan marked", round, slot(i), v)
			}
		}
	}
}
