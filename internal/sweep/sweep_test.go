package sweep

import (
	"testing"

	"minesweeper/internal/mem"
	"minesweeper/internal/shadow"
)

func setup(t testing.TB, helpers int) (*mem.AddressSpace, *shadow.Bitmap, *Sweeper) {
	t.Helper()
	as := mem.NewAddressSpace()
	marks := shadow.New()
	return as, marks, New(as, marks, helpers)
}

func TestMarkAllFindsPointers(t *testing.T) {
	as, marks, s := setup(t, 0)
	heap, _ := as.Map(mem.KindHeap, 4*mem.PageSize, true)
	stack, _ := as.Map(mem.KindStack, mem.PageSize, true)
	globals, _ := as.Map(mem.KindGlobals, mem.PageSize, true)

	target1 := heap.Base() + 0x100 // pointed to from stack
	target2 := heap.Base() + 0x800 // pointed to from globals
	target3 := heap.Base() + 0x900 // pointed to from heap itself
	clean := heap.Base() + 0x2000  // no pointers

	if err := as.Store64(stack.Base()+8, target1); err != nil {
		t.Fatal(err)
	}
	if err := as.Store64(globals.Base()+16, target2); err != nil {
		t.Fatal(err)
	}
	if err := as.Store64(heap.Base()+0x1000, target3); err != nil {
		t.Fatal(err)
	}
	// Non-pointer data: small integer and a stack address.
	if err := as.Store64(heap.Base()+0x1100, 12345); err != nil {
		t.Fatal(err)
	}
	if err := as.Store64(heap.Base()+0x1108, stack.Base()); err != nil {
		t.Fatal(err)
	}

	// This test asserts full-coverage byte accounting; disable the known-zero
	// page skip so untouched pages still count as scanned.
	s.SetKnownZeroSkip(false)
	swept := s.Mark(Full).BytesScanned
	if want := uint64(6 * mem.PageSize); swept != want {
		t.Errorf("bytes swept = %d, want %d", swept, want)
	}
	for _, target := range []uint64{target1, target2, target3} {
		if !marks.Test(target) {
			t.Errorf("target %#x not marked", target)
		}
	}
	if marks.Test(clean) {
		t.Errorf("clean address %#x marked", clean)
	}
	if s.BytesSwept() != swept {
		t.Errorf("BytesSwept = %d, want %d", s.BytesSwept(), swept)
	}
	if s.BusyTime() <= 0 {
		t.Error("BusyTime not accounted")
	}
}

func TestFalsePointerIsMarked(t *testing.T) {
	// An integer that happens to equal a heap address is conservatively
	// treated as a pointer (paper Figure 4's "false pointer").
	as, marks, s := setup(t, 0)
	heap, _ := as.Map(mem.KindHeap, mem.PageSize, true)
	falsePtr := heap.Base() + 0x40
	if err := as.Store64(heap.Base()+0x200, falsePtr); err != nil {
		t.Fatal(err)
	}
	s.Mark(Full)
	if !marks.Test(falsePtr) {
		t.Error("false pointer not conservatively marked")
	}
}

func TestNonResidentPagesSkipped(t *testing.T) {
	as, marks, s := setup(t, 0)
	heap, _ := as.Map(mem.KindHeap, 4*mem.PageSize, true)
	target := heap.Base() + 8
	// Touch every page so none is dismissed as known-zero: this test must
	// observe the residency filter, not the known-zero skip.
	for p := uint64(0); p < 4; p++ {
		if err := as.Store64(heap.Base()+p*mem.PageSize+0x80, 0xdead); err != nil {
			t.Fatal(err)
		}
	}
	// Plant a pointer, then decommit its page: the sweep must skip it.
	if err := as.Store64(heap.Base()+2*mem.PageSize, target); err != nil {
		t.Fatal(err)
	}
	if err := as.Decommit(heap.Base()+2*mem.PageSize, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	swept := s.Mark(Full).BytesScanned
	if want := uint64(3 * mem.PageSize); swept != want {
		t.Errorf("bytes swept = %d, want %d (one page decommitted)", swept, want)
	}
	if marks.Test(target) {
		t.Error("pointer on decommitted page was marked")
	}
}

func TestProtectedPagesSkipped(t *testing.T) {
	as, marks, s := setup(t, 0)
	heap, _ := as.Map(mem.KindHeap, 2*mem.PageSize, true)
	target := heap.Base() + 8
	if err := as.Store64(heap.Base()+mem.PageSize, target); err != nil {
		t.Fatal(err)
	}
	if err := as.Protect(heap.Base()+mem.PageSize, mem.PageSize, mem.ProtNone); err != nil {
		t.Fatal(err)
	}
	s.Mark(Full)
	if marks.Test(target) {
		t.Error("pointer on PROT_NONE page was marked")
	}
}

func TestMarkDirtyOnlyScansDirtyPages(t *testing.T) {
	as, marks, s := setup(t, 0)
	heap, _ := as.Map(mem.KindHeap, 8*mem.PageSize, true)
	t1 := heap.Base() + 0x10
	t2 := heap.Base() + 0x20

	// Write a pointer, then clear soft-dirty (simulating the state at the
	// start of a mostly-concurrent sweep).
	if err := as.Store64(heap.Base()+mem.PageSize, t1); err != nil {
		t.Fatal(err)
	}
	as.ClearSoftDirty()
	// Mutator writes a new pointer during the "concurrent" pass.
	if err := as.Store64(heap.Base()+4*mem.PageSize, t2); err != nil {
		t.Fatal(err)
	}

	swept := s.Mark(Dirty).BytesScanned
	if want := uint64(mem.PageSize); swept != want {
		t.Errorf("dirty bytes swept = %d, want %d", swept, want)
	}
	if marks.Test(t1) {
		t.Error("clean page's pointer marked by dirty scan")
	}
	if !marks.Test(t2) {
		t.Error("dirty page's pointer not marked")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	// Plant pointers across many pages; a parallel sweep must mark the
	// same set as a serial one.
	build := func() (*mem.AddressSpace, []uint64) {
		as := mem.NewAddressSpace()
		heap, _ := as.Map(mem.KindHeap, 512*mem.PageSize, true)
		rng := uint64(42)
		var targets []uint64
		for i := 0; i < 2000; i++ {
			slot := heap.Base() + uint64(i)*16
			rng = rng*6364136223846793005 + 1442695040888963407
			target := heap.Base() + (rng % heap.Size())
			if err := as.Store64(slot, target); err != nil {
				t.Fatal(err)
			}
			targets = append(targets, target)
		}
		return as, targets
	}

	asA, targetsA := build()
	marksA := shadow.New()
	New(asA, marksA, 0).Mark(Full)

	asB, _ := build()
	marksB := shadow.New()
	New(asB, marksB, 7).Mark(Full)
	_ = asB

	if a, b := marksA.PopCount(), marksB.PopCount(); a != b {
		t.Errorf("serial marked %d granules, parallel %d", a, b)
	}
	for _, tgt := range targetsA {
		if !marksA.Test(tgt) {
			t.Errorf("serial sweep missed %#x", tgt)
		}
	}
}

func TestEmptySpace(t *testing.T) {
	_, _, s := setup(t, 4)
	if n := s.Mark(Full).BytesScanned; n != 0 {
		t.Errorf("MarkAll on empty space = %d, want 0", n)
	}
}

func TestConcurrentMutatorDuringSweep(t *testing.T) {
	// Race-detector coverage: a mutator storing while the sweep scans.
	as, _, s := setup(t, 3)
	heap, _ := as.Map(mem.KindHeap, 64*mem.PageSize, true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10000; i++ {
			addr := heap.Base() + uint64(i*8)%heap.Size()
			if err := as.Store64(addr, heap.Base()); err != nil {
				t.Errorf("Store64: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		s.Mark(Full)
	}
	<-done
}

func BenchmarkMarkAll64MiB(b *testing.B) {
	as := mem.NewAddressSpace()
	heap, _ := as.Map(mem.KindHeap, (64<<20)/mem.PageSize*mem.PageSize, true)
	// Fill with a mix of pointers and data.
	rng := uint64(1)
	for off := uint64(0); off < heap.Size(); off += 64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		_ = as.Store64(heap.Base()+off, heap.Base()+rng%heap.Size())
	}
	marks := shadow.New()
	s := New(as, marks, DefaultHelpers)
	b.SetBytes(64 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Mark(Full)
		marks.ClearAll()
	}
}
