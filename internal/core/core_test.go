package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"minesweeper/internal/alloc"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
	"minesweeper/internal/quarantine"
)

// testConfig returns a deterministic configuration: synchronous sweeps are
// never auto-triggered (threshold 0 disabled by huge value), buffers flush
// immediately.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Mode = Synchronous
	cfg.SweepThreshold = 1e18 // manual sweeps only
	cfg.UnmappedFactor = 0
	cfg.PauseThreshold = 0
	cfg.BufferCap = 1
	cfg.Helpers = 2
	return cfg
}

func newTestHeap(t testing.TB, cfg Config) (*Heap, alloc.ThreadID) {
	t.Helper()
	h, err := New(mem.NewAddressSpace(), cfg, jemalloc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Shutdown)
	return h, h.RegisterThread()
}

func TestFreeQuarantinesInsteadOfReusing(t *testing.T) {
	h, tid := newTestHeap(t, testConfig())
	a, err := h.Malloc(tid, 48)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	if h.Quarantined() == 0 {
		t.Error("nothing quarantined after free")
	}
	// Without a sweep, the address must not be reused.
	for i := 0; i < 100; i++ {
		b, err := h.Malloc(tid, 48)
		if err != nil {
			t.Fatal(err)
		}
		if b == a {
			t.Fatal("quarantined address reused before sweep")
		}
	}
}

func TestSweepReleasesUnreferenced(t *testing.T) {
	h, tid := newTestHeap(t, testConfig())
	a, _ := h.Malloc(tid, 48)
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	h.Sweep()
	st := h.Stats()
	if st.ReleasedFrees != 1 {
		t.Errorf("ReleasedFrees = %d, want 1", st.ReleasedFrees)
	}
	if st.Quarantined != 0 {
		t.Errorf("Quarantined = %d, want 0", st.Quarantined)
	}
	if st.Sweeps != 1 {
		t.Errorf("Sweeps = %d, want 1", st.Sweeps)
	}
}

// TestRecycleChargesSweeperCycles pins the recycle phase on the CPU meter:
// with marking off, a sweep over quarantined entries runs only recycle, and
// it must still raise SweeperCycles. cpu_util_x is 1 + SweeperCycles/wall,
// so a recycle that dropped off the meter would read as a large false gain.
func TestRecycleChargesSweeperCycles(t *testing.T) {
	for _, mode := range []Mode{Synchronous, FullyConcurrent} {
		cfg := testConfig()
		cfg.Mode = mode
		cfg.Sweeping = false
		h, tid := newTestHeap(t, cfg)
		for i := 0; i < 2000; i++ {
			a, err := h.Malloc(tid, 64)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Free(tid, a); err != nil {
				t.Fatal(err)
			}
		}
		h.FlushThread(tid)
		before := h.Stats().SweeperCycles
		h.Sweep()
		st := h.Stats()
		if st.ReleasedFrees != 2000 {
			t.Fatalf("%v: ReleasedFrees = %d, want 2000", mode, st.ReleasedFrees)
		}
		if st.SweeperCycles <= before {
			t.Errorf("%v: SweeperCycles %d -> %d, want a rise from the recycle phase", mode, before, st.SweeperCycles)
		}
	}
}

func TestDanglingPointerPreventsRelease(t *testing.T) {
	h, tid := newTestHeap(t, testConfig())
	g, err := h.space.Map(mem.KindGlobals, mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := h.Malloc(tid, 48)
	// Keep a dangling pointer in globals.
	if err := h.space.Store64(g.Base(), a); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	h.Sweep()
	st := h.Stats()
	if st.FailedFrees == 0 {
		t.Error("FailedFrees = 0, want >= 1")
	}
	if st.Quarantined == 0 {
		t.Error("entry released despite dangling pointer")
	}
	// The address must never be handed out while the pointer exists.
	for i := 0; i < 200; i++ {
		b, _ := h.Malloc(tid, 48)
		if b == a {
			t.Fatal("use-after-reallocate: quarantined address reused")
		}
	}
	// Overwrite the dangling pointer: the next sweep releases it.
	if err := h.space.Store64(g.Base(), 0); err != nil {
		t.Fatal(err)
	}
	h.Sweep()
	if got := h.Stats().Quarantined; got != 0 {
		t.Errorf("Quarantined = %d after pointer removed and re-swept", got)
	}
}

func TestInteriorDanglingPointerPreventsRelease(t *testing.T) {
	// Pointers "at an offset inside the allocation" also count (§3.2).
	h, tid := newTestHeap(t, testConfig())
	g, _ := h.space.Map(mem.KindGlobals, mem.PageSize, true)
	a, _ := h.Malloc(tid, 256)
	if err := h.space.Store64(g.Base(), a+128); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	h.Sweep()
	if h.Stats().Quarantined == 0 {
		t.Error("released despite interior dangling pointer")
	}
}

func TestEndPointerPreventsRelease(t *testing.T) {
	// One-past-the-end pointers are valid references (§3.2): with the +1
	// pad, base+requested lands inside the allocation and must pin it.
	h, tid := newTestHeap(t, testConfig())
	g, _ := h.space.Map(mem.KindGlobals, mem.PageSize, true)
	a, _ := h.Malloc(tid, 64) // class 80 due to pad
	if err := h.space.Store64(g.Base(), a+64); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	h.Sweep()
	if h.Stats().Quarantined == 0 {
		t.Error("released despite end pointer")
	}
}

func TestFalsePointerPreventsRelease(t *testing.T) {
	// An integer that equals the allocation's address is conservatively a
	// pointer (§3.3).
	h, tid := newTestHeap(t, testConfig())
	g, _ := h.space.Map(mem.KindGlobals, mem.PageSize, true)
	a, _ := h.Malloc(tid, 48)
	if err := h.space.Store64(g.Base(), a); err != nil { // "unlucky data"
		t.Fatal(err)
	}
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	h.Sweep()
	if h.Stats().FailedFrees == 0 {
		t.Error("false pointer not conservatively honoured")
	}
}

func TestZeroingOnFree(t *testing.T) {
	h, tid := newTestHeap(t, testConfig())
	a, _ := h.Malloc(tid, 64)
	if err := h.space.Store64(a, 0xdead); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	// Benign use-after-free: reads return zero, not stale data.
	v, err := h.space.Load64(a)
	if err != nil {
		t.Fatalf("benign UAF read faulted: %v", err)
	}
	if v != 0 {
		t.Errorf("freed memory reads %#x, want 0", v)
	}
}

func TestZeroingBreaksQuarantineChains(t *testing.T) {
	// a -> b pointer chain, both freed. With zeroing, one sweep releases
	// both: a's pointer to b was erased at free time.
	h, tid := newTestHeap(t, testConfig())
	a, _ := h.Malloc(tid, 64)
	b, _ := h.Malloc(tid, 64)
	if err := h.space.Store64(a, b); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(tid, b); err != nil {
		t.Fatal(err)
	}
	h.Sweep()
	if got := h.Stats().Quarantined; got != 0 {
		t.Errorf("Quarantined = %d, want 0 (zeroing should break the chain)", got)
	}
}

func TestCyclicQuarantineWithoutZeroingNeverFrees(t *testing.T) {
	// The paper's motivation for zeroing (§4.1): cyclic structures in
	// quarantine can never be deallocated without it.
	cfg := testConfig()
	cfg.Zeroing = false
	h, tid := newTestHeap(t, cfg)
	a, _ := h.Malloc(tid, 64)
	b, _ := h.Malloc(tid, 64)
	if err := h.space.Store64(a, b); err != nil {
		t.Fatal(err)
	}
	if err := h.space.Store64(b, a); err != nil {
		t.Fatal(err)
	}
	_ = h.Free(tid, a)
	_ = h.Free(tid, b)
	for i := 0; i < 3; i++ {
		h.Sweep()
	}
	if got := h.Stats().Quarantined; got == 0 {
		t.Error("cycle was freed without zeroing; expected permanent failed frees")
	}
	if h.Stats().FailedFrees == 0 {
		t.Error("no failed frees recorded for cycle")
	}
}

func TestDoubleFreeAbsorbed(t *testing.T) {
	h, tid := newTestHeap(t, testConfig())
	a, _ := h.Malloc(tid, 48)
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(tid, a); err != nil {
		t.Errorf("double free returned %v, want absorbed nil", err)
	}
	if got := h.Stats().DoubleFrees; got != 1 {
		t.Errorf("DoubleFrees = %d, want 1", got)
	}
	// Only one true free happens: after a sweep the allocation can be
	// reallocated and freed again without error.
	h.Sweep()
	if got := h.Stats().ReleasedFrees; got != 1 {
		t.Errorf("ReleasedFrees = %d, want 1", got)
	}
}

func TestDoubleFreeDebugMode(t *testing.T) {
	cfg := testConfig()
	cfg.DebugDoubleFree = true
	h, tid := newTestHeap(t, cfg)
	a, _ := h.Malloc(tid, 48)
	_ = h.Free(tid, a)
	if err := h.Free(tid, a); !errors.Is(err, alloc.ErrDoubleFree) {
		t.Errorf("debug double free = %v, want ErrDoubleFree", err)
	}
}

// TestUnregisteredThreadRejected: Malloc and Free on a thread ID that
// RegisterThread never returned, or that UnregisterThread retired, return an
// error naming the ID, and such a Free quarantines nothing.
func TestUnregisteredThreadRejected(t *testing.T) {
	h, tid := newTestHeap(t, testConfig())
	a, err := h.Malloc(tid, 64)
	if err != nil {
		t.Fatal(err)
	}
	retired := h.RegisterThread()
	h.UnregisterThread(retired)
	for _, bad := range []alloc.ThreadID{retired, retired + 1, 99, -1} {
		name := fmt.Sprintf("thread %d", bad)
		if _, err := h.Malloc(bad, 64); !errors.Is(err, errUnregistered) || !strings.Contains(err.Error(), name) {
			t.Errorf("Malloc(%d) = %v, want an unregistered-thread error naming %q", bad, err, name)
		}
		if err := h.Free(bad, a); !errors.Is(err, errUnregistered) || !strings.Contains(err.Error(), name) {
			t.Errorf("Free(%d) = %v, want an unregistered-thread error naming %q", bad, err, name)
		}
	}
	h.FlushThread(tid)
	if h.q.Contains(a) || h.Stats().Quarantined != 0 {
		t.Fatalf("a Free on an unregistered thread quarantined %#x", a)
	}
	if err := h.Free(tid, a); err != nil {
		t.Fatalf("Free on the registered thread: %v", err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidFree(t *testing.T) {
	h, tid := newTestHeap(t, testConfig())
	if err := h.Free(tid, mem.HeapBase+0x5000); !errors.Is(err, alloc.ErrInvalidFree) {
		t.Errorf("Free(wild) = %v, want ErrInvalidFree", err)
	}
	a, _ := h.Malloc(tid, 1000)
	if err := h.Free(tid, a+16); !errors.Is(err, alloc.ErrInvalidFree) {
		t.Errorf("Free(interior) = %v, want ErrInvalidFree", err)
	}
}

func TestLargeAllocationUnmappedInQuarantine(t *testing.T) {
	h, tid := newTestHeap(t, testConfig())
	a, err := h.Malloc(tid, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rssBefore := h.space.RSS()
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.QuarantinedUnmapped == 0 {
		t.Fatal("large quarantined allocation not unmapped")
	}
	if got := h.space.RSS(); got >= rssBefore {
		t.Errorf("RSS = %d after unmap, want < %d", got, rssBefore)
	}
	// Accesses to the unmapped quarantined range fault (clean termination
	// in the paper's model).
	if _, err := h.space.Load64(a); err == nil {
		t.Error("load of unmapped quarantined page succeeded")
	}
	// Sweep releases it; reallocation of the same size reuses and
	// recommits the extent.
	h.Sweep()
	b, err := h.Malloc(tid, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Logf("note: extent not reused (%#x vs %#x)", a, b)
	}
	if err := h.space.Store64(b, 1); err != nil {
		t.Errorf("store to recommitted extent faulted: %v", err)
	}
}

func TestUnmappingDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.Unmapping = false
	h, tid := newTestHeap(t, cfg)
	a, _ := h.Malloc(tid, 1<<20)
	rssBefore := h.space.RSS()
	_ = h.Free(tid, a)
	if got := h.space.RSS(); got != rssBefore {
		t.Errorf("RSS changed (%d -> %d) with unmapping disabled", rssBefore, got)
	}
	if h.Stats().QuarantinedUnmapped != 0 {
		t.Error("QuarantinedUnmapped nonzero with unmapping disabled")
	}
}

func TestAutomaticSweepTrigger(t *testing.T) {
	cfg := testConfig()
	cfg.SweepThreshold = 0.15
	h, tid := newTestHeap(t, cfg)
	// Keep a sizeable live heap, then free enough to cross 15%.
	var keep []uint64
	for i := 0; i < 200; i++ {
		a, _ := h.Malloc(tid, 1024)
		keep = append(keep, a)
	}
	for i := 0; i < 60; i++ { // ~60KiB freed vs ~200KiB live
		a, _ := h.Malloc(tid, 1024)
		if err := h.Free(tid, a); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Stats().Sweeps; got == 0 {
		t.Error("no sweep triggered by threshold")
	}
	for _, a := range keep {
		_ = h.Free(tid, a)
	}
}

func TestUnmappedFactorTrigger(t *testing.T) {
	cfg := testConfig()
	cfg.UnmappedFactor = 0.5 // aggressive so a test-sized heap triggers
	h, tid := newTestHeap(t, cfg)
	for i := 0; i < 16; i++ {
		a, err := h.Malloc(tid, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Free(tid, a); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Stats().Sweeps; got == 0 {
		t.Error("no sweep triggered by unmapped factor")
	}
}

func TestFullyConcurrentSweep(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = FullyConcurrent
	cfg.SweepThreshold = 0.15
	h, tid := newTestHeap(t, cfg)
	var keep []uint64
	for i := 0; i < 400; i++ {
		a, _ := h.Malloc(tid, 512)
		keep = append(keep, a)
	}
	for i := 0; i < 4000; i++ {
		a, err := h.Malloc(tid, 512)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Free(tid, a); err != nil {
			t.Fatal(err)
		}
	}
	h.FlushThread(tid)
	h.Sweep() // direct call drains whatever is pending
	st := h.Stats()
	if st.Sweeps == 0 {
		t.Error("no sweeps ran")
	}
	if st.Quarantined != 0 {
		t.Errorf("Quarantined = %d after final sweep, want 0", st.Quarantined)
	}
	for _, a := range keep {
		_ = h.Free(tid, a)
	}
}

func TestMostlyConcurrentMode(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = MostlyConcurrent
	h, tid := newTestHeap(t, cfg)
	a, _ := h.Malloc(tid, 48)
	_ = h.Free(tid, a)
	h.Sweep()
	st := h.Stats()
	if st.Quarantined != 0 {
		t.Errorf("Quarantined = %d, want 0", st.Quarantined)
	}
	if st.STWCycles == 0 {
		t.Error("STWCycles = 0; stop-the-world re-scan not accounted")
	}
}

type countingWorld struct{ stops, starts int }

func (w *countingWorld) Stop()  { w.stops++ }
func (w *countingWorld) Start() { w.starts++ }

func TestMostlyConcurrentUsesWorld(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = MostlyConcurrent
	w := &countingWorld{}
	cfg.World = w
	h, tid := newTestHeap(t, cfg)
	a, _ := h.Malloc(tid, 48)
	_ = h.Free(tid, a)
	h.Sweep()
	if w.stops != 1 || w.starts != 1 {
		t.Errorf("world stops/starts = %d/%d, want 1/1", w.stops, w.starts)
	}
}

func TestPartialVersionBaseOverheads(t *testing.T) {
	// Figure 17 stage 1: free forwards straight to the allocator.
	cfg := testConfig()
	cfg.Quarantine = false
	cfg.Zeroing = false
	cfg.Unmapping = false
	h, tid := newTestHeap(t, cfg)
	a, _ := h.Malloc(tid, 48)
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	if h.Quarantined() != 0 {
		t.Error("quarantine active in base mode")
	}
	b, _ := h.Malloc(tid, 48)
	if b != a {
		t.Error("no immediate reuse in base mode")
	}
}

func TestPartialVersionZeroUnmap(t *testing.T) {
	// Figure 17 stage 2: zero small, unmap+remap large, then recycle.
	cfg := testConfig()
	cfg.Quarantine = false
	h, tid := newTestHeap(t, cfg)
	a, _ := h.Malloc(tid, 64)
	_ = h.space.Store64(a, 7)
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	if v, _ := h.space.Load64(a); v != 0 {
		t.Error("small allocation not zeroed in partial mode")
	}
	l, _ := h.Malloc(tid, 1<<20)
	if err := h.Free(tid, l); err != nil {
		t.Fatal(err)
	}
	// Unmapped then immediately remapped: accessible and zero.
	if v, err := h.space.Load64(l); err != nil || v != 0 {
		t.Errorf("large partial-mode free: load = %v, %v; want 0, nil", v, err)
	}
}

func TestPartialVersionNoFailedFrees(t *testing.T) {
	// Figure 17 stage 5: sweep and check, but free regardless.
	cfg := testConfig()
	cfg.FailedFrees = false
	h, tid := newTestHeap(t, cfg)
	g, _ := h.space.Map(mem.KindGlobals, mem.PageSize, true)
	a, _ := h.Malloc(tid, 48)
	_ = h.space.Store64(g.Base(), a)
	_ = h.Free(tid, a)
	h.Sweep()
	st := h.Stats()
	if st.FailedFrees == 0 {
		t.Error("failed free not counted")
	}
	if st.Quarantined != 0 {
		t.Error("entry kept in quarantine with FailedFrees disabled")
	}
}

func TestUsableSizeQuarantined(t *testing.T) {
	h, tid := newTestHeap(t, testConfig())
	a, _ := h.Malloc(tid, 100)
	if h.UsableSize(a) == 0 {
		t.Error("UsableSize(live) = 0")
	}
	_ = h.Free(tid, a)
	if h.UsableSize(a) != 0 {
		t.Error("UsableSize(quarantined) != 0")
	}
}

func TestStatsAllocatedExcludesQuarantine(t *testing.T) {
	h, tid := newTestHeap(t, testConfig())
	a, _ := h.Malloc(tid, 1024)
	live, _ := h.Malloc(tid, 1024)
	_ = h.Free(tid, a)
	st := h.Stats()
	// 1024+1 pad byte rounds to class 1280.
	if st.Allocated != 1280 {
		t.Errorf("Allocated = %d, want 1280 (quarantine excluded)", st.Allocated)
	}
	if st.Quarantined != 1280 {
		t.Errorf("Quarantined = %d, want 1280", st.Quarantined)
	}
	_ = h.Free(tid, live)
}

func TestManyObjectsChurnEndsClean(t *testing.T) {
	cfg := testConfig()
	cfg.SweepThreshold = 0.15
	h, tid := newTestHeap(t, cfg)
	rng := uint64(7)
	var live []uint64
	for i := 0; i < 20000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		size := rng%4096 + 1
		a, err := h.Malloc(tid, size)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, a)
		if len(live) > 500 {
			idx := int(rng % uint64(len(live)))
			if err := h.Free(tid, live[idx]); err != nil {
				t.Fatalf("free #%d: %v", i, err)
			}
			live[idx] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	for _, a := range live {
		if err := h.Free(tid, a); err != nil {
			t.Fatal(err)
		}
	}
	h.FlushThread(tid)
	h.Sweep()
	st := h.Stats()
	if st.Allocated != 0 {
		t.Errorf("Allocated = %d at end, want 0", st.Allocated)
	}
	if st.Quarantined != 0 {
		t.Errorf("Quarantined = %d at end, want 0", st.Quarantined)
	}
	if st.Sweeps == 0 {
		t.Error("no sweeps triggered during churn")
	}
}

func BenchmarkMallocFreeProtected(b *testing.B) {
	cfg := DefaultConfig()
	h, err := New(mem.NewAddressSpace(), cfg, jemalloc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer h.Shutdown()
	tid := h.RegisterThread()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := h.Malloc(tid, 64)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Free(tid, a); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCheckInvariantsUnderChurn(t *testing.T) {
	cfg := testConfig()
	cfg.SweepThreshold = 0.15
	h, tid := newTestHeap(t, cfg)
	g, _ := h.space.Map(mem.KindGlobals, mem.PageSize, true)
	rng := uint64(3)
	var live []uint64
	for i := 0; i < 5000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		a, err := h.Malloc(tid, rng%8192+16)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, a)
		if len(live) > 200 {
			idx := int(rng % uint64(len(live)))
			if err := h.Free(tid, live[idx]); err != nil {
				t.Fatal(err)
			}
			live[idx] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if i%500 == 0 {
			if err := h.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	// Pin one entry with a dangling pointer so failed-free accounting is
	// exercised too.
	pinned, _ := h.Malloc(tid, 64)
	_ = h.space.Store64(g.Base(), pinned)
	_ = h.Free(tid, pinned)
	h.Sweep()
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, a := range live {
		_ = h.Free(tid, a)
	}
	h.Sweep()
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsUnmappedEveryPage: invariant 4 holds for every page of
// an unmapped entry, not only its first. A 64 KiB allocation is unmapped when
// freed; re-committing its 5th page must be reported.
func TestCheckInvariantsUnmappedEveryPage(t *testing.T) {
	h, tid := newTestHeap(t, testConfig())
	a, err := h.Malloc(tid, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	if got := h.q.UnmappedBytes(); got < 64<<10 {
		t.Fatalf("UnmappedBytes = %d after freeing 64 KiB, want the allocation unmapped", got)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("unmapped entry: %v", err)
	}
	if err := h.space.Commit(a+4*mem.PageSize, mem.PageSize, mem.ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted an unmapped entry whose 5th page is resident")
	}
}

// TestCheckInvariantsPendingNotMember: an entry on the pending list that the
// membership set does not hold (put there by Requeue, which appends without
// inserting) breaks invariant 5.
func TestCheckInvariantsPendingNotMember(t *testing.T) {
	h, tid := newTestHeap(t, testConfig())
	a, err := h.Malloc(tid, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("clean heap: %v", err)
	}
	h.q.Requeue([]quarantine.Entry{quarantine.NewEntry(a, 64)})
	if err := h.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a pending entry missing from the membership set")
	}
}

// TestCheckInvariantsMemberNotPending: a base the membership set holds with
// no pending entry (its drain's append taken by a LockIn no sweep followed)
// breaks invariant 5, although the check walks only the pending list.
func TestCheckInvariantsMemberNotPending(t *testing.T) {
	h, tid := newTestHeap(t, testConfig())
	a, err := h.Malloc(tid, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("clean heap: %v", err)
	}
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	h.FlushThread(tid)
	if got := h.q.LockIn(); len(got) != 1 || !h.q.Contains(a) {
		t.Fatalf("LockIn took %d entries, member %v; want 1, true", len(got), h.q.Contains(a))
	}
	if err := h.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a quarantined base missing from the pending list")
	}
}

// TestDrainPanicReleasesDrainLock: a drain that panics, recovered by its
// caller, must release the thread's drain lock; otherwise the thread's
// UnregisterThread (and every later drain) blocks on it for good.
func TestDrainPanicReleasesDrainLock(t *testing.T) {
	// No t.Cleanup(Shutdown): after a deadlock Shutdown would block on the
	// same lock. Synchronous mode runs no sweeper goroutine to leak.
	h, err := New(mem.NewAddressSpace(), testConfig(), jemalloc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tid := h.RegisterThread()
	ts := h.threadState(tid)
	good := ts.tbuf
	// A ring over no quarantine: its drain dereferences the nil quarantine.
	ts.tbuf = quarantine.NewThreadBuffer(nil, 4)
	ts.tbuf.Push(quarantine.NewEntry(mem.HeapBase, 16))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("draining a ring over a nil quarantine did not panic")
			}
		}()
		h.FlushThread(tid)
	}()
	ts.tbuf = good

	done := make(chan struct{})
	go func() {
		h.UnregisterThread(tid)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("UnregisterThread blocked on the drain lock a panicking drain kept")
	}
	h.Shutdown()
}
