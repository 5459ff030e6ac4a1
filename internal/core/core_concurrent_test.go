package core

import (
	"runtime"
	"sync"
	"testing"

	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
	"minesweeper/internal/sim"
)

// churn runs a correct mutator (pointers erased before free) on one thread.
func churn(t *testing.T, h *Heap, w *sim.World, tid int, iters int) {
	t.Helper()
	id := h.RegisterThread()
	if w != nil {
		w.Register()
		defer w.Unregister()
	}
	rng := uint64(tid)*2654435761 + 1
	var live []uint64
	for i := 0; i < iters; i++ {
		if w != nil {
			w.Safepoint()
		}
		rng = rng*6364136223846793005 + 1442695040888963407
		a, err := h.Malloc(id, rng%2048+16)
		if err != nil {
			t.Error(err)
			return
		}
		if err := h.space.Store64(a, rng&0xFFFF); err != nil {
			t.Error(err)
			return
		}
		live = append(live, a)
		if len(live) > 128 {
			idx := int(rng % uint64(len(live)))
			if err := h.Free(id, live[idx]); err != nil {
				t.Error(err)
				return
			}
			live[idx] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	for _, a := range live {
		if err := h.Free(id, a); err != nil {
			t.Error(err)
			return
		}
	}
	h.FlushThread(id)
}

func TestConcurrentMutatorsFullyConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferCap = 8
	h, err := New(mem.NewAddressSpace(), cfg, jemalloc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			churn(t, h, nil, g, 3000)
		}(g)
	}
	wg.Wait()
	h.Sweep()
	h.Sweep()
	st := h.Stats()
	if st.Quarantined != 0 {
		t.Errorf("Quarantined = %d after final sweeps, want 0", st.Quarantined)
	}
	if st.Allocated != 0 {
		t.Errorf("Allocated = %d at exit, want 0", st.Allocated)
	}
	if st.Sweeps == 0 {
		t.Error("no sweeps ran")
	}
}

func TestConcurrentMutatorsMostlyConcurrentWithWorld(t *testing.T) {
	world := sim.NewWorld()
	cfg := DefaultConfig()
	cfg.Mode = MostlyConcurrent
	cfg.World = world
	cfg.BufferCap = 8
	h, err := New(mem.NewAddressSpace(), cfg, jemalloc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			churn(t, h, world, g, 3000)
		}(g)
	}
	wg.Wait()
	h.Sweep()
	h.Sweep()
	st := h.Stats()
	if st.Quarantined != 0 {
		t.Errorf("Quarantined = %d after final sweeps, want 0", st.Quarantined)
	}
	if st.Sweeps > 0 && st.STWCycles == 0 {
		t.Error("mostly-concurrent sweeps recorded no STW time")
	}
}

func TestShardedChurnWithConcurrentSweeps(t *testing.T) {
	// 8 mutators over a 4-shard substrate while explicit sweeps run
	// concurrently: the batched release path (FreeBatch) constantly frees
	// into shards other than the sweeping thread's own, and tcache flushes
	// race bin handbacks. Run under -race via make race-hot / make check.
	cfg := DefaultConfig()
	cfg.BufferCap = 8
	jcfg := jemalloc.DefaultConfig()
	jcfg.Arenas = 4
	h, err := New(mem.NewAddressSpace(), cfg, jcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	done := make(chan struct{})
	sweeperDone := make(chan struct{})
	go func() {
		defer close(sweeperDone)
		for {
			select {
			case <-done:
				return
			default:
				h.Sweep()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			churn(t, h, nil, g, 2000)
		}(g)
	}
	wg.Wait()
	close(done)
	<-sweeperDone
	h.Sweep()
	h.Sweep()
	st := h.Stats()
	if st.Quarantined != 0 {
		t.Errorf("Quarantined = %d after final sweeps, want 0", st.Quarantined)
	}
	if st.Allocated != 0 {
		t.Errorf("Allocated = %d at exit, want 0", st.Allocated)
	}
	if got := h.sub.(*jemalloc.Heap).NumArenas(); got != 4 {
		t.Errorf("NumArenas = %d, want 4", got)
	}
}

func TestPauseOnOverwhelm(t *testing.T) {
	// An extreme allocation rate with a tiny pause threshold must engage
	// the §5.7 pausing mechanism instead of growing memory unboundedly.
	// One P starves the sweeper of CPU while the mutator runs, so the
	// sweeper is overwhelmed however fast a sweep of this small heap is.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := DefaultConfig()
	cfg.PauseThreshold = 0.5
	cfg.BufferCap = 1
	h, err := New(mem.NewAddressSpace(), cfg, jemalloc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	id := h.RegisterThread()
	// Keep one live object so the heap denominator is nonzero.
	keep, _ := h.Malloc(id, 4096)
	for i := 0; i < 5000; i++ {
		a, err := h.Malloc(id, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Free(id, a); err != nil {
			t.Fatal(err)
		}
	}
	_ = h.Free(id, keep)
	if h.Stats().PauseNanos == 0 {
		t.Error("no pause time recorded under overwhelming churn")
	}
	if h.Stats().Sweeps == 0 {
		t.Error("no sweeps under overwhelming churn")
	}
}

func TestSweepThresholdHonoursFailedFrees(t *testing.T) {
	// Failed frees are subtracted from both sides of the trigger (§3.2):
	// a quarantine made mostly of failed frees must NOT trigger a sweep
	// storm. We verify sweeps stay bounded with a permanently-referenced
	// quarantined object dominating the quarantine.
	cfg := testConfig()
	cfg.SweepThreshold = 0.15
	h, tid := newTestHeap(t, cfg)
	g, _ := h.space.Map(mem.KindGlobals, mem.PageSize, true)
	pinned, _ := h.Malloc(tid, 8192)
	_ = h.space.Store64(g.Base(), pinned)
	keep, _ := h.Malloc(tid, 8192) // live heap
	_ = h.Free(tid, pinned)
	h.Sweep() // fails; pinned stays with Failed flag
	if h.Stats().FailedFrees == 0 {
		t.Fatal("setup: pinned free did not fail")
	}
	sweepsBefore := h.Stats().Sweeps
	// Small frees that, counting the failed bytes, would exceed 15%, but
	// with failed frees subtracted do not.
	for i := 0; i < 20; i++ {
		a, _ := h.Malloc(tid, 16)
		_ = h.Free(tid, a)
	}
	extra := h.Stats().Sweeps - sweepsBefore
	if extra > 2 {
		t.Errorf("%d sweeps triggered by tiny frees; failed-free subtraction broken", extra)
	}
	_ = h.Free(tid, keep)
}

func TestUnmappedFactorCountsOnlyUnmapped(t *testing.T) {
	// The 9x trigger (§4.2) compares UNMAPPED quarantine against RSS;
	// mapped quarantine must not fire it.
	cfg := testConfig()
	cfg.UnmappedFactor = 0.1
	cfg.Unmapping = false // nothing gets unmapped
	h, tid := newTestHeap(t, cfg)
	for i := 0; i < 32; i++ {
		a, _ := h.Malloc(tid, 1<<20)
		if err := h.Free(tid, a); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Stats().Sweeps; got != 0 {
		t.Errorf("unmapped-factor trigger fired %d times with unmapping disabled", got)
	}
}

func TestEpochIsolation(t *testing.T) {
	// §4.3: "any allocations placed in quarantine between the start and
	// end of a sweep can only be recycled by a future sweep". With
	// synchronous sweeps we emulate the lock-in by freeing after LockIn:
	// a forced sweep must not release entries appended after it started.
	h, tid := newTestHeap(t, testConfig())
	a, _ := h.Malloc(tid, 64)
	b, _ := h.Malloc(tid, 64)
	_ = h.Free(tid, a)
	h.Sweep() // releases a only; b is not yet freed
	_ = h.Free(tid, b)
	st := h.Stats()
	if st.ReleasedFrees != 1 {
		t.Fatalf("ReleasedFrees = %d, want 1", st.ReleasedFrees)
	}
	if st.Quarantined == 0 {
		t.Fatal("b released without a sweep")
	}
	h.Sweep()
	if got := h.Stats().ReleasedFrees; got != 2 {
		t.Errorf("ReleasedFrees = %d after second sweep, want 2", got)
	}
}

func TestZeroingSizeCoversWholeAllocation(t *testing.T) {
	// Zero-on-free must cover the usable size, not just the request:
	// stale pointers at the tail would otherwise survive into quarantine.
	h, tid := newTestHeap(t, testConfig())
	a, _ := h.Malloc(tid, 100) // usable 112
	for off := uint64(0); off < 112; off += 8 {
		if err := h.space.Store64(a+off, 0xFF); err != nil {
			t.Fatal(err)
		}
	}
	_ = h.Free(tid, a)
	for off := uint64(0); off < 112; off += 8 {
		v, err := h.space.Load64(a + off)
		if err != nil {
			t.Fatalf("+%d: %v", off, err)
		}
		if v != 0 {
			t.Errorf("word at +%d = %#x after free, want 0", off, v)
		}
	}
}
