package jemalloc

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"minesweeper/internal/alloc"
	"minesweeper/internal/mem"
)

func newHeap(t testing.TB, cfg Config) (*Heap, alloc.ThreadID) {
	t.Helper()
	h := New(mem.NewAddressSpace(), cfg)
	return h, h.RegisterThread()
}

func TestSizeClassTable(t *testing.T) {
	// Spot-check against real 64-bit jemalloc classes.
	want := []uint64{8, 16, 32, 48, 64, 80, 96, 112, 128, 160, 192, 224, 256,
		320, 384, 448, 512, 640, 768, 896, 1024, 1280, 1536, 1792, 2048,
		2560, 3072, 3584, 4096, 5120, 6144, 7168, 8192, 10240, 12288, 14336}
	if NumClasses() != len(want) {
		t.Fatalf("NumClasses = %d, want %d", NumClasses(), len(want))
	}
	for i, w := range want {
		if ClassSize(i) != w {
			t.Errorf("ClassSize(%d) = %d, want %d", i, ClassSize(i), w)
		}
	}
}

func TestSizeToClass(t *testing.T) {
	cases := []struct {
		size uint64
		want uint64 // class size
	}{
		{1, 8}, {8, 8}, {9, 16}, {16, 16}, {17, 32}, {33, 48}, {128, 128},
		{129, 160}, {160, 160}, {161, 192}, {2048, 2048}, {2049, 2560},
		{14336, 14336}, {14000, 14336},
	}
	for _, c := range cases {
		got := ClassSize(SizeToClass(c.size))
		if got != c.want {
			t.Errorf("SizeToClass(%d) -> %d, want %d", c.size, got, c.want)
		}
	}
}

func TestSizeToClassExhaustive(t *testing.T) {
	// Every size maps to the smallest class >= size.
	for size := uint64(1); size <= SmallMax; size++ {
		c := SizeToClass(size)
		if ClassSize(c) < size {
			t.Fatalf("SizeToClass(%d) = class %d (%d) < size", size, c, ClassSize(c))
		}
		if c > 0 && ClassSize(c-1) >= size {
			t.Fatalf("SizeToClass(%d) = class %d but class %d (%d) also fits", size, c, c-1, ClassSize(c-1))
		}
	}
}

func TestSlabGeometry(t *testing.T) {
	for c := 0; c < NumClasses(); c++ {
		pages := SlabPages(c)
		if pages < 1 || pages > maxSlabPages {
			t.Errorf("class %d: SlabPages = %d out of range", c, pages)
		}
		regs := SlabRegions(c)
		if regs < 1 {
			t.Errorf("class %d: SlabRegions = %d", c, regs)
		}
		if uint64(regs)*ClassSize(c) > uint64(pages)*mem.PageSize {
			t.Errorf("class %d: regions overflow slab", c)
		}
		waste := uint64(pages)*mem.PageSize - uint64(regs)*ClassSize(c)
		if float64(waste)/float64(uint64(pages)*mem.PageSize) > 0.25 {
			t.Errorf("class %d (size %d): waste %d of %d pages too high", c, ClassSize(c), waste, pages)
		}
	}
}

func TestMallocFreeSmall(t *testing.T) {
	h, tid := newHeap(t, DefaultConfig())
	addr, err := h.Malloc(tid, 100)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	if !mem.IsHeapAddr(addr) {
		t.Errorf("Malloc returned non-heap address %#x", addr)
	}
	// PadEnd: 100+1 -> class 112.
	if got := h.UsableSize(addr); got != 112 {
		t.Errorf("UsableSize = %d, want 112", got)
	}
	if got := h.AllocatedBytes(); got != 112 {
		t.Errorf("AllocatedBytes = %d, want 112", got)
	}
	if err := h.Free(tid, addr); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if got := h.AllocatedBytes(); got != 0 {
		t.Errorf("AllocatedBytes after free = %d, want 0", got)
	}
}

func TestMallocZeroSize(t *testing.T) {
	h, tid := newHeap(t, DefaultConfig())
	addr, err := h.Malloc(tid, 0)
	if err != nil {
		t.Fatalf("Malloc(0): %v", err)
	}
	if h.UsableSize(addr) == 0 {
		t.Error("Malloc(0) returned unusable allocation")
	}
	if err := h.Free(tid, addr); err != nil {
		t.Errorf("Free: %v", err)
	}
}

func TestMallocLarge(t *testing.T) {
	h, tid := newHeap(t, DefaultConfig())
	addr, err := h.Malloc(tid, 100_000)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	us := h.UsableSize(addr)
	if us < 100_001 || us%mem.PageSize != 0 {
		t.Errorf("UsableSize = %d, want page multiple >= 100001", us)
	}
	if err := h.Free(tid, addr); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if h.AllocatedBytes() != 0 {
		t.Errorf("AllocatedBytes = %d, want 0", h.AllocatedBytes())
	}
}

func TestPadEndKeepsEndPointerInAllocation(t *testing.T) {
	// With PadEnd, a one-past-the-end pointer of the *requested* size must
	// still resolve to the same allocation.
	h, tid := newHeap(t, DefaultConfig())
	addr, err := h.Malloc(tid, 64) // becomes class 80
	if err != nil {
		t.Fatal(err)
	}
	a, ok := h.Lookup(addr + 64)
	if !ok || a.Base != addr {
		t.Errorf("end pointer resolves to (%#x, %v), want (%#x, true)", a.Base, ok, addr)
	}
}

func TestPadEndDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PadEnd = false
	h, tid := newHeap(t, cfg)
	addr, err := h.Malloc(tid, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.UsableSize(addr); got != 64 {
		t.Errorf("UsableSize = %d, want 64", got)
	}
}

func TestDistinctAllocations(t *testing.T) {
	h, tid := newHeap(t, DefaultConfig())
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		addr, err := h.Malloc(tid, 48)
		if err != nil {
			t.Fatal(err)
		}
		if seen[addr] {
			t.Fatalf("address %#x returned twice while live", addr)
		}
		seen[addr] = true
	}
}

func TestReuseAfterFree(t *testing.T) {
	h, tid := newHeap(t, DefaultConfig())
	a, _ := h.Malloc(tid, 48)
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	// LIFO tcache: immediate reuse.
	b, _ := h.Malloc(tid, 48)
	if a != b {
		t.Errorf("tcache did not reuse: %#x then %#x", a, b)
	}
}

func TestInvalidFree(t *testing.T) {
	h, tid := newHeap(t, DefaultConfig())
	if err := h.Free(tid, mem.HeapBase+123456); !errors.Is(err, alloc.ErrInvalidFree) {
		t.Errorf("Free(unmapped) = %v, want ErrInvalidFree", err)
	}
	addr, _ := h.Malloc(tid, 1000) // class 1024
	if err := h.Free(tid, addr+8); !errors.Is(err, alloc.ErrInvalidFree) {
		t.Errorf("Free(interior) = %v, want ErrInvalidFree", err)
	}
}

func TestDoubleFreeSmall(t *testing.T) {
	h, tid := newHeap(t, DefaultConfig())
	addr, _ := h.Malloc(tid, 48)
	if err := h.Free(tid, addr); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(tid, addr); !errors.Is(err, alloc.ErrDoubleFree) {
		t.Errorf("double Free = %v, want ErrDoubleFree", err)
	}
}

func TestDoubleFreeSmallNoTcache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TcacheEnabled = false
	h, tid := newHeap(t, cfg)
	addr, _ := h.Malloc(tid, 48)
	if err := h.Free(tid, addr); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(tid, addr); !errors.Is(err, alloc.ErrDoubleFree) {
		t.Errorf("double Free = %v, want ErrDoubleFree", err)
	}
}

func TestLookupFreeRegion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TcacheEnabled = false
	h, tid := newHeap(t, cfg)
	addr, _ := h.Malloc(tid, 48)
	if _, ok := h.Lookup(addr); !ok {
		t.Fatal("Lookup(live) failed")
	}
	if err := h.Free(tid, addr); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Lookup(addr); ok {
		t.Error("Lookup(freed region) succeeded")
	}
}

func TestLookupInterior(t *testing.T) {
	h, tid := newHeap(t, DefaultConfig())
	addr, _ := h.Malloc(tid, 1000) // class 1024
	a, ok := h.Lookup(addr + 512)
	if !ok || a.Base != addr || a.Size != 1024 {
		t.Errorf("Lookup(interior) = (%#x, %d, %v), want (%#x, 1024, true)", a.Base, a.Size, ok, addr)
	}
	if a.Large {
		t.Error("small allocation reported Large")
	}
}

func TestSlabReleasedWhenEmpty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TcacheEnabled = false
	h, tid := newHeap(t, cfg)
	// Fill several slabs of class 4096 (1 region per page likely).
	regs := SlabRegions(SizeToClass(4096))
	var addrs []uint64
	for i := 0; i < regs*3; i++ {
		a, err := h.Malloc(tid, 4000)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		if err := h.Free(tid, a); err != nil {
			t.Fatal(err)
		}
	}
	if h.arenaStats().dirtyExtents == 0 {
		t.Error("no slabs released to arena after freeing everything")
	}
}

func TestPurgeAllReducesRSS(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TcacheEnabled = false
	h, tid := newHeap(t, cfg)
	addr, _ := h.Malloc(tid, 1<<20)
	rssLive := h.Space().RSS()
	if err := h.Free(tid, addr); err != nil {
		t.Fatal(err)
	}
	if got := h.Space().RSS(); got != rssLive {
		t.Errorf("RSS changed on free before purge: %d -> %d", rssLive, got)
	}
	h.PurgeAll()
	if got := h.Space().RSS(); got >= rssLive {
		t.Errorf("RSS after purge = %d, want < %d", got, rssLive)
	}
}

func TestDecayPurging(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TcacheEnabled = false
	cfg.DecayCycles = 100
	h, tid := newHeap(t, cfg)
	addr, _ := h.Malloc(tid, 1<<20)
	if err := h.Free(tid, addr); err != nil {
		t.Fatal(err)
	}
	dirtyBefore := h.arenaStats().dirtyBytes
	if dirtyBefore == 0 {
		t.Fatal("no dirty bytes after large free")
	}
	h.Tick(50) // before deadline
	if d := h.arenaStats().dirtyBytes; d != dirtyBefore {
		t.Error("decay purged too early")
	}
	h.Tick(200) // past deadline
	if d := h.arenaStats().dirtyBytes; d != 0 {
		t.Errorf("dirty bytes after decay = %d, want 0", d)
	}
}

func TestRecommitAfterPurgeZeroes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TcacheEnabled = false
	h, tid := newHeap(t, cfg)
	addr, _ := h.Malloc(tid, 1<<16)
	if err := h.Space().Store64(addr, 0x1234); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(tid, addr); err != nil {
		t.Fatal(err)
	}
	h.PurgeAll()
	addr2, err := h.Malloc(tid, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if addr2 != addr {
		t.Fatalf("extent not recycled: %#x vs %#x", addr, addr2)
	}
	v, err := h.Space().Load64(addr2)
	if err != nil {
		t.Fatalf("load after recommit: %v", err)
	}
	if v != 0 {
		t.Errorf("recommitted extent reads %#x, want 0", v)
	}
}

func TestUnregisterThreadFlushes(t *testing.T) {
	h, tid := newHeap(t, DefaultConfig())
	var addrs []uint64
	for i := 0; i < 10; i++ {
		a, _ := h.Malloc(tid, 48)
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		if err := h.Free(tid, a); err != nil {
			t.Fatal(err)
		}
	}
	h.UnregisterThread(tid)
	// After flush, regions must be free at the bin level: Lookup fails.
	for _, a := range addrs {
		if _, ok := h.Lookup(a); ok {
			t.Errorf("address %#x still allocated after unregister flush", a)
		}
	}
}

func TestStats(t *testing.T) {
	h, tid := newHeap(t, DefaultConfig())
	a, _ := h.Malloc(tid, 100)
	b, _ := h.Malloc(tid, 100_000)
	st := h.Stats()
	if st.Mallocs != 2 || st.Frees != 0 {
		t.Errorf("Mallocs/Frees = %d/%d, want 2/0", st.Mallocs, st.Frees)
	}
	if st.Allocated == 0 || st.Active == 0 {
		t.Errorf("Allocated/Active = %d/%d, want nonzero", st.Allocated, st.Active)
	}
	if st.MetaBytes == 0 {
		t.Error("MetaBytes = 0")
	}
	_ = h.Free(tid, a)
	_ = h.Free(tid, b)
	st = h.Stats()
	if st.Frees != 2 {
		t.Errorf("Frees = %d, want 2", st.Frees)
	}
}

func TestConcurrentMallocFree(t *testing.T) {
	h := New(mem.NewAddressSpace(), DefaultConfig())
	const threads = 8
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		tid := h.RegisterThread()
		wg.Add(1)
		go func(tid alloc.ThreadID, seed uint64) {
			defer wg.Done()
			rng := seed
			var live []uint64
			for i := 0; i < iters; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				size := rng%2048 + 1
				a, err := h.Malloc(tid, size)
				if err != nil {
					t.Errorf("Malloc: %v", err)
					return
				}
				live = append(live, a)
				if len(live) > 64 {
					idx := int(rng % uint64(len(live)))
					if err := h.Free(tid, live[idx]); err != nil {
						t.Errorf("Free: %v", err)
						return
					}
					live[idx] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			for _, a := range live {
				if err := h.Free(tid, a); err != nil {
					t.Errorf("final Free: %v", err)
					return
				}
			}
		}(tid, uint64(g)+1)
	}
	wg.Wait()
	if got := h.AllocatedBytes(); got != 0 {
		t.Errorf("AllocatedBytes after all frees = %d, want 0", got)
	}
}

// Property: malloc/free sequences never corrupt accounting — allocated bytes
// equal the sum of usable sizes of live allocations at every step.
func TestQuickAccountingInvariant(t *testing.T) {
	h, tid := newHeap(t, DefaultConfig())
	live := make(map[uint64]uint64) // addr -> usable
	var sum uint64
	f := func(ops []uint32) bool {
		for _, op := range ops {
			if op&1 == 0 || len(live) == 0 {
				size := uint64(op>>1)%20000 + 1
				a, err := h.Malloc(tid, size)
				if err != nil {
					return false
				}
				us := h.UsableSize(a)
				if us < size {
					return false
				}
				live[a] = us
				sum += us
			} else {
				for a, us := range live {
					if err := h.Free(tid, a); err != nil {
						return false
					}
					delete(live, a)
					sum -= us
					break
				}
			}
			if h.AllocatedBytes() != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMallocFreeSmall(b *testing.B) {
	h, tid := newHeap(b, DefaultConfig())
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

func BenchmarkMallocFreeLarge(b *testing.B) {
	h, tid := newHeap(b, DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := h.Malloc(tid, 64<<10)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Free(tid, a); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDetailedStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TcacheEnabled = false
	h, tid := newHeap(t, cfg)
	var small []uint64
	for i := 0; i < 100; i++ {
		a, err := h.Malloc(tid, 64) // class 80
		if err != nil {
			t.Fatal(err)
		}
		small = append(small, a)
	}
	big, _ := h.Malloc(tid, 1<<20)
	d := h.DetailedStats()
	if d.Allocated != 100*80+d.LargeBytes {
		t.Errorf("Allocated = %d, want %d", d.Allocated, 100*80+d.LargeBytes)
	}
	if d.LargeBytes == 0 {
		t.Error("LargeBytes = 0 with a live large allocation")
	}
	found := false
	for _, b := range d.Bins {
		if b.Size == 80 {
			found = true
			if b.CurRegs != 100 {
				t.Errorf("class 80 CurRegs = %d, want 100", b.CurRegs)
			}
			if b.Utilisation <= 0 || b.Utilisation > 1 {
				t.Errorf("Utilisation = %f", b.Utilisation)
			}
		}
	}
	if !found {
		t.Error("class 80 missing from bins")
	}
	if d.String() == "" {
		t.Error("empty String rendering")
	}
	for _, a := range small {
		_ = h.Free(tid, a)
	}
	_ = h.Free(tid, big)
	d = h.DetailedStats()
	if d.Allocated != 0 {
		t.Errorf("Allocated after frees = %d", d.Allocated)
	}
	if d.DirtyExtents == 0 {
		t.Error("no dirty extents after frees")
	}
}
