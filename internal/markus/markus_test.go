package markus

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"minesweeper/internal/alloc"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
	"minesweeper/internal/quarantine"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Synchronous = true
	cfg.SweepThreshold = 1e18 // manual collects only
	return cfg
}

func newHeap(t testing.TB, cfg Config) (*Heap, alloc.ThreadID) {
	t.Helper()
	h := New(mem.NewAddressSpace(), cfg, jemalloc.DefaultConfig())
	t.Cleanup(h.Shutdown)
	return h, h.RegisterThread()
}

func TestQuarantineAndRelease(t *testing.T) {
	h, tid := newHeap(t, testConfig())
	a, err := h.Malloc(tid, 48)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	if h.Quarantined() == 0 {
		t.Error("nothing quarantined")
	}
	h.Collect()
	st := h.Stats()
	if st.Quarantined != 0 || st.ReleasedFrees != 1 {
		t.Errorf("Quarantined/Released = %d/%d, want 0/1", st.Quarantined, st.ReleasedFrees)
	}
}

func TestRootPointerPreventsRelease(t *testing.T) {
	h, tid := newHeap(t, testConfig())
	g, _ := h.space.Map(mem.KindGlobals, mem.PageSize, true)
	a, _ := h.Malloc(tid, 48)
	if err := h.space.Store64(g.Base(), a); err != nil {
		t.Fatal(err)
	}
	_ = h.Free(tid, a)
	h.Collect()
	st := h.Stats()
	if st.FailedFrees == 0 || st.Quarantined == 0 {
		t.Error("reachable quarantined allocation was released")
	}
	// Remove the root; next collect releases.
	_ = h.space.Store64(g.Base(), 0)
	h.Collect()
	if h.Stats().Quarantined != 0 {
		t.Error("unreachable allocation still quarantined")
	}
}

func TestTransitiveReachabilityThroughLiveObjects(t *testing.T) {
	// root -> live object -> quarantined object: the quarantined object is
	// reachable only transitively and must be kept.
	h, tid := newHeap(t, testConfig())
	g, _ := h.space.Map(mem.KindGlobals, mem.PageSize, true)
	liveObj, _ := h.Malloc(tid, 64)
	q, _ := h.Malloc(tid, 64)
	if err := h.space.Store64(g.Base(), liveObj); err != nil {
		t.Fatal(err)
	}
	if err := h.space.Store64(liveObj, q); err != nil {
		t.Fatal(err)
	}
	_ = h.Free(tid, q)
	h.Collect()
	if h.Stats().Quarantined == 0 {
		t.Error("transitively reachable quarantined allocation released")
	}
}

func TestTransitiveChainThroughQuarantine(t *testing.T) {
	// root -> quarantined A -> quarantined B: without zeroing, MarkUs
	// keeps both (contrast with MineSweeper, which zeroes A's pointer).
	h, tid := newHeap(t, testConfig())
	g, _ := h.space.Map(mem.KindGlobals, mem.PageSize, true)
	a, _ := h.Malloc(tid, 64)
	b, _ := h.Malloc(tid, 64)
	_ = h.space.Store64(g.Base(), a)
	_ = h.space.Store64(a, b)
	_ = h.Free(tid, a)
	_ = h.Free(tid, b)
	h.Collect()
	if got := h.Stats().FailedFrees; got != 2 {
		t.Errorf("FailedFrees = %d, want 2 (both reachable)", got)
	}
}

func TestCycleInQuarantineIsFreed(t *testing.T) {
	// Unreachable cycle: transitive marking from roots never visits it,
	// so MarkUs frees it (the GC advantage zeroing replicates linearly).
	h, tid := newHeap(t, testConfig())
	a, _ := h.Malloc(tid, 64)
	b, _ := h.Malloc(tid, 64)
	_ = h.space.Store64(a, b)
	_ = h.space.Store64(b, a)
	_ = h.Free(tid, a)
	_ = h.Free(tid, b)
	h.Collect()
	if got := h.Stats().Quarantined; got != 0 {
		t.Errorf("Quarantined = %d, want 0 (unreachable cycle)", got)
	}
}

func TestNoZeroingPreservesContents(t *testing.T) {
	h, tid := newHeap(t, testConfig())
	a, _ := h.Malloc(tid, 64)
	_ = h.space.Store64(a, 0xbeef)
	_ = h.Free(tid, a)
	v, err := h.space.Load64(a)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xbeef {
		t.Errorf("MarkUs zeroed freed memory: %#x", v)
	}
}

func TestDoubleFreeAbsorbed(t *testing.T) {
	h, tid := newHeap(t, testConfig())
	a, _ := h.Malloc(tid, 48)
	_ = h.Free(tid, a)
	if err := h.Free(tid, a); err != nil {
		t.Errorf("double free = %v, want nil", err)
	}
	if h.Stats().DoubleFrees != 1 {
		t.Errorf("DoubleFrees = %d, want 1", h.Stats().DoubleFrees)
	}
}

func TestInvalidFree(t *testing.T) {
	h, tid := newHeap(t, testConfig())
	if err := h.Free(tid, mem.HeapBase+0x40); !errors.Is(err, alloc.ErrInvalidFree) {
		t.Errorf("Free(wild) = %v, want ErrInvalidFree", err)
	}
}

func TestLargeUnmappedInQuarantine(t *testing.T) {
	h, tid := newHeap(t, testConfig())
	a, _ := h.Malloc(tid, 1<<20)
	rss := h.space.RSS()
	_ = h.Free(tid, a)
	if got := h.space.RSS(); got >= rss {
		t.Errorf("RSS = %d after large quarantine, want < %d", got, rss)
	}
	if h.Stats().QuarantinedUnmapped == 0 {
		t.Error("large quarantined allocation not unmapped")
	}
	h.Collect()
	if h.Stats().Quarantined != 0 {
		t.Error("unmapped entry not released by collect")
	}
}

func TestAutoTrigger25Percent(t *testing.T) {
	cfg := testConfig()
	cfg.SweepThreshold = 0.25
	h, tid := newHeap(t, cfg)
	var keep []uint64
	for i := 0; i < 100; i++ {
		a, _ := h.Malloc(tid, 1024)
		keep = append(keep, a)
	}
	for i := 0; i < 50; i++ {
		a, _ := h.Malloc(tid, 1024)
		if err := h.Free(tid, a); err != nil {
			t.Fatal(err)
		}
	}
	if h.Stats().Sweeps == 0 {
		t.Error("no collection triggered at 25%")
	}
	for _, a := range keep {
		_ = h.Free(tid, a)
	}
}

func TestStackRootsScanned(t *testing.T) {
	h, tid := newHeap(t, testConfig())
	stk, _ := h.space.Map(mem.KindStack, mem.PageSize, true)
	a, _ := h.Malloc(tid, 48)
	_ = h.space.Store64(stk.Base()+128, a)
	_ = h.Free(tid, a)
	h.Collect()
	if h.Stats().Quarantined == 0 {
		t.Error("stack root ignored")
	}
}

func BenchmarkCollect(b *testing.B) {
	h, tid := newHeap(b, testConfig())
	g, _ := h.space.Map(mem.KindGlobals, mem.PageSize, true)
	// A linked list of 1000 live nodes plus 1000 quarantined ones.
	prev := uint64(0)
	for i := 0; i < 1000; i++ {
		n, _ := h.Malloc(tid, 64)
		_ = h.space.Store64(n, prev)
		prev = n
	}
	_ = h.space.Store64(g.Base(), prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 1000; j++ {
			a, _ := h.Malloc(tid, 64)
			_ = h.Free(tid, a)
		}
		b.StartTimer()
		h.Collect()
	}
}

// TestConcurrentFreeCollect races four freeing threads, double frees
// included, against a collector calling Collect in a loop. Every thread
// double-frees each third allocation while a global root still points at it,
// so the duplicate always meets a quarantined allocation. Afterwards the
// counters must match what the threads did, and the byte accounts must equal
// the sums over the pending list.
func TestConcurrentFreeCollect(t *testing.T) {
	h, _ := newHeap(t, testConfig())
	const threads = 4
	const perThread = 300
	roots, err := h.space.Map(mem.KindGlobals, mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for {
			select {
			case <-stop:
				return
			default:
				h.Collect()
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tid := h.RegisterThread()
			root := roots.Base() + uint64(g)*8
			for i := 0; i < perThread; i++ {
				size := uint64(48)
				if i%10 == 0 {
					size = 32 << 10 // large: unmapped while quarantined
				}
				a, err := h.Malloc(tid, size)
				if err != nil {
					errs <- err
					return
				}
				double := i%3 == 0
				if double {
					if err := h.space.Store64(root, a); err != nil {
						errs <- err
						return
					}
				}
				if err := h.Free(tid, a); err != nil {
					errs <- err
					return
				}
				if double {
					if err := h.Free(tid, a); err != nil {
						errs <- fmt.Errorf("double free of %#x: %w", a, err)
						return
					}
					if err := h.space.Store64(root, 0); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-collected
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	doubles := uint64(threads * ((perThread + 2) / 3))
	st := h.Stats()
	if st.DoubleFrees != doubles {
		t.Errorf("DoubleFrees = %d, want %d", st.DoubleFrees, doubles)
	}
	if got := st.ReleasedFrees + h.q.Entries(); got != threads*perThread {
		t.Errorf("released %d + quarantined %d = %d, want %d frees",
			st.ReleasedFrees, h.q.Entries(), got, threads*perThread)
	}
	checkPendingSums(t, h)
	h.Collect()
	checkPendingSums(t, h)
	if st := h.Stats(); st.Quarantined != 0 || st.ReleasedFrees != threads*perThread {
		t.Errorf("after the last collect: Quarantined/Released = %d/%d, want 0/%d",
			st.Quarantined, st.ReleasedFrees, threads*perThread)
	}
}

// checkPendingSums is core.CheckInvariants' accounting check for a quiescent
// MarkUs heap: every pending entry is a member, none is pending twice, and
// the entry count and the mapped, unmapped and failed byte accounts equal
// the sums over the pending list.
func checkPendingSums(t *testing.T, h *Heap) {
	t.Helper()
	var mapped, unmapped, failed uint64
	seen := map[uint64]bool{}
	h.q.ForEachPending(func(e quarantine.Entry) {
		if seen[e.Base] {
			t.Errorf("entry %#x pending twice", e.Base)
		}
		seen[e.Base] = true
		if !h.q.Contains(e.Base) {
			t.Errorf("pending entry %#x not quarantined", e.Base)
		}
		if e.Unmapped() {
			unmapped += e.Size()
		} else {
			mapped += e.Size()
		}
		if e.Failed() {
			failed += e.Size()
		}
	})
	if got := h.q.Entries(); got != uint64(len(seen)) {
		t.Errorf("%d pending entries != %d quarantined", len(seen), got)
	}
	if h.q.Bytes() != mapped || h.q.UnmappedBytes() != unmapped || h.q.FailedBytes() != failed {
		t.Errorf("accounts mapped/unmapped/failed = %d/%d/%d, sums over pending = %d/%d/%d",
			h.q.Bytes(), h.q.UnmappedBytes(), h.q.FailedBytes(), mapped, unmapped, failed)
	}
}
