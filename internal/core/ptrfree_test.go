package core

import (
	"testing"

	"minesweeper/internal/alloc"
	"minesweeper/internal/mem"
	"minesweeper/internal/telemetry"
)

// payloadWord is a non-zero word outside [HeapBase, HeapLimit): it makes a
// page not known-zero without making it hold a pointer.
const payloadWord = 0x5eed

// sweepOne frees one fresh small chunk and sweeps, so the sweep has an
// entry to lock in and runs its mark. The chunk's page stays known-zero.
func sweepOne(t *testing.T, h *Heap, tid alloc.ThreadID) {
	t.Helper()
	v, err := h.Malloc(tid, 48)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(tid, v); err != nil {
		t.Fatal(err)
	}
	h.Sweep()
}

// lastSweep returns the newest sweep record in reg.
func lastSweep(t *testing.T, reg *telemetry.Registry) telemetry.SweepRecord {
	t.Helper()
	sw := reg.Snapshot().Sweeps
	if len(sw) == 0 {
		t.Fatal("no sweep records")
	}
	return sw[len(sw)-1]
}

// TestPtrFreePageStoreKeepsTargetQuarantined is the pointer-free skip's
// safety oracle: a page flagged pointer-free at sweep N that then receives
// a dangling pointer must be read again at sweep N+1, so the pointer's
// target stays quarantined as a failed free until the pointer is erased.
func TestPtrFreePageStoreKeepsTargetQuarantined(t *testing.T) {
	h, tid := newTestHeap(t, testConfig())
	g, err := h.space.Map(mem.KindGlobals, mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.space.Store64(g.Base(), payloadWord); err != nil {
		t.Fatal(err)
	}
	sweepOne(t, h, tid) // sweep N reads the page and flags it
	if !g.PagePtrFree(0) {
		t.Fatal("globals page holding only a payload word not flagged pointer-free")
	}

	x, err := h.Malloc(tid, 48)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.space.Store64(g.Base()+8, x); err != nil {
		t.Fatal(err)
	}
	if g.PagePtrFree(0) {
		t.Fatal("store of a heap pointer left the page flagged pointer-free")
	}
	if err := h.Free(tid, x); err != nil {
		t.Fatal(err)
	}
	failed := h.Stats().FailedFrees
	h.Sweep() // sweep N+1
	if got := h.Stats().FailedFrees; got != failed+1 {
		t.Fatalf("FailedFrees = %d after sweep N+1, want %d", got, failed+1)
	}
	if !h.q.Contains(x) {
		t.Fatal("chunk released while a pointer to it sat in a page flagged at sweep N")
	}
	if g.PagePtrFree(0) {
		t.Fatal("page holding a heap pointer flagged pointer-free")
	}

	if err := h.space.Store64(g.Base()+8, 0); err != nil {
		t.Fatal(err)
	}
	h.Sweep()
	if h.q.Contains(x) || h.Quarantined() != 0 {
		t.Fatalf("chunk still quarantined after its pointer was erased (Quarantined = %d)", h.Quarantined())
	}
}

// TestPtrFreeSteadySweepReadsOnlyStoredPages is the skip's effect: over a
// heap whose pages hold data but no pointer, a second sweep reads no page,
// and a third reads exactly the pages stored to since. Disabling the skip
// (SetKnownZeroSkip(false)) reads every page again.
func TestPtrFreeSteadySweepReadsOnlyStoredPages(t *testing.T) {
	cfg := testConfig()
	cfg.Telemetry = telemetry.NewRegistry(16)
	h, tid := newTestHeap(t, cfg)

	// 64 objects of 1 KiB each carry a payload word: 16 pages, none
	// known-zero, none holding a pointer. Keep one object per page.
	perPage := map[uint64]uint64{}
	for i := 0; i < 64; i++ {
		a, err := h.Malloc(tid, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.space.Store64(a, payloadWord); err != nil {
			t.Fatal(err)
		}
		perPage[a>>mem.PageShift] = a
	}

	sweepOne(t, h, tid)
	first := lastSweep(t, cfg.Telemetry)
	if first.PagesScanned < uint64(len(perPage)) {
		t.Fatalf("first sweep read %d pages, want >= %d", first.PagesScanned, len(perPage))
	}

	sweepOne(t, h, tid)
	second := lastSweep(t, cfg.Telemetry)
	if second.PagesScanned != 0 {
		t.Errorf("second sweep over an unchanged pointer-free heap read %d pages, want 0", second.PagesScanned)
	}
	if second.PagesPtrFree != first.PagesScanned {
		t.Errorf("second sweep skipped %d pages as pointer-free, want %d", second.PagesPtrFree, first.PagesScanned)
	}

	stored := 0
	for _, a := range perPage {
		if stored == 3 {
			break
		}
		if err := h.space.Store64(a+8, payloadWord); err != nil {
			t.Fatal(err)
		}
		stored++
	}
	sweepOne(t, h, tid)
	third := lastSweep(t, cfg.Telemetry)
	if third.PagesScanned != uint64(stored) {
		t.Errorf("third sweep read %d pages, want the %d stored to", third.PagesScanned, stored)
	}

	h.sw.SetKnownZeroSkip(false)
	sweepOne(t, h, tid)
	off := lastSweep(t, cfg.Telemetry)
	if off.PagesPtrFree != 0 || off.PagesScanned < first.PagesScanned {
		t.Errorf("skip disabled: read %d pages, skipped %d as pointer-free; want >= %d and 0",
			off.PagesScanned, off.PagesPtrFree, first.PagesScanned)
	}

	var gauge uint64
	for _, g := range cfg.Telemetry.Snapshot().Gauges {
		if g.Name == "sweep_ptr_free_pages_total" {
			gauge = g.Value
		}
	}
	if want := first.PagesPtrFree + second.PagesPtrFree + third.PagesPtrFree; gauge != want {
		t.Errorf("sweep_ptr_free_pages_total = %d, want %d", gauge, want)
	}
}
