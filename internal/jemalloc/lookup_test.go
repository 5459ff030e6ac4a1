package jemalloc

import (
	"math/rand"
	"sync"
	"testing"

	"minesweeper/internal/mem"
)

// TestLookupOutOfRange probes addresses that name no jemalloc allocation:
// words outside the heap area, and addresses inside regions of the same
// address space that jemalloc did not map — a stack, the globals segment
// and a heap region another allocator mapped. The page table resolves all of
// them to a region or to nothing; none may resolve to an extent, through
// extentOf or through Lookup's copy of it.
func TestLookupOutOfRange(t *testing.T) {
	space := mem.NewAddressSpace()
	h := New(space, DefaultConfig())
	tid := h.RegisterThread()
	addr, err := h.Malloc(tid, 100)
	if err != nil {
		t.Fatal(err)
	}
	probes := []uint64{
		0, 1, mem.GlobalsBase, mem.StackBase,
		mem.HeapBase - 1, mem.HeapLimit, mem.HeapLimit + mem.PageSize,
		^uint64(0),
	}
	for _, kind := range []mem.Kind{mem.KindStack, mem.KindGlobals, mem.KindHeap} {
		r, err := space.Map(kind, 2*mem.PageSize, true)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, r.Base(), r.Base()+mem.PageSize+8, r.End()-1)
	}
	for _, p := range probes {
		if a, ok := h.Lookup(p); ok {
			t.Errorf("Lookup(%#x) = (%+v, %v), want nothing", p, a, ok)
		}
		if e := h.extentOf(p); e != nil {
			t.Errorf("extentOf(%#x) = %p, want nil", p, e)
		}
	}
	if a, ok := h.Lookup(addr); !ok || a.Base != addr {
		t.Errorf("Lookup(live %#x) = (%+v, %v), want its allocation", addr, a, ok)
	}
}

// TestLookupEveryPage requires every page of a multi-page large allocation
// and of every multi-page slab to resolve to the allocation that covers it,
// through the one page table: Lookup to the allocation, extentOf to its
// extent.
func TestLookupEveryPage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TcacheEnabled = false
	cfg.Arenas = 1
	h, tid := newHeap(t, cfg)

	large, err := h.Malloc(tid, 7*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	la, ok := h.Lookup(large)
	le := h.extentOf(large)
	if !ok || !la.Large || la.Size < 7*mem.PageSize || le == nil || le.base != large {
		t.Fatalf("Lookup(large) = (%+v, %v), extent %p", la, ok, le)
	}
	for off := uint64(0); off < la.Size; off += mem.PageSize {
		for _, p := range []uint64{large + off, large + off + mem.PageSize - 1} {
			if a, ok := h.Lookup(p); !ok || a != la || h.extentOf(p) != le {
				t.Errorf("Lookup(large page %#x) = (%+v, %v), want %+v", p, a, ok, la)
			}
		}
	}
	if _, ok := h.Lookup(large + la.Size); ok {
		t.Errorf("Lookup(one past the large extent) resolved")
	}

	for c := 0; c < NumClasses(); c++ {
		if SlabPages(c) < 2 {
			continue
		}
		size := ClassSize(c)
		live := make(map[uint64]bool)
		var slab *Extent
		for i := 0; i < SlabRegions(c); i++ {
			addr, err := h.Malloc(tid, size-1) // the end pad makes it size
			if err != nil {
				t.Fatal(err)
			}
			live[addr] = true
			e := h.extentOf(addr)
			if slab == nil {
				slab = e
			} else if e != slab {
				t.Fatalf("class %d: region %d landed in a second slab", c, i)
			}
		}
		for p := slab.base; p < slab.base+slab.size; p += mem.PageSize {
			for _, q := range []uint64{p, p + mem.PageSize - 1} {
				a, ok := h.Lookup(q)
				if !ok || h.extentOf(q) != slab || !live[a.Base] || a.Size != size || q >= a.Base+a.Size {
					t.Errorf("class %d: Lookup(%#x) = (%+v, %v), want the live region covering it", c, q, a, ok)
				}
			}
		}
	}
}

// TestConcurrentMallocFreeLookup hammers the allocator from several
// goroutines — small and large mallocs and frees churning extents in and out
// of the arena's dirty lists — while other goroutines resolve lookups of live,
// freed and arbitrary addresses through the lock-free page map. Run with
// -race (the race-hot make target) this is the radix tree's publication-
// safety proof; without it, a sanity check that concurrent lookups never
// observe torn state.
func TestConcurrentMallocFreeLookup(t *testing.T) {
	h := New(mem.NewAddressSpace(), DefaultConfig())
	const (
		mutators = 4
		ops      = 4000
	)
	var mutWg, hamWg sync.WaitGroup
	stop := make(chan struct{})

	// Lookup hammer: probes addresses across the whole heap span the
	// mutators work in, plus wild words.
	for g := 0; g < 2; g++ {
		hamWg.Add(1)
		go func(seed int64) {
			defer hamWg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < 256; i++ {
					addr := mem.HeapBase + uint64(rng.Int63n(1<<30))
					if a, ok := h.Lookup(addr); ok {
						if addr < a.Base || addr >= a.Base+a.Size {
							t.Errorf("Lookup(%#x) returned non-containing allocation [%#x,%#x)", addr, a.Base, a.Base+a.Size)
							return
						}
					}
					_ = h.UsableSize(addr)
				}
				_ = h.Stats() // exercises the arena accounting concurrently
			}
		}(int64(g) + 7)
	}

	for g := 0; g < mutators; g++ {
		mutWg.Add(1)
		go func(seed int64) {
			defer mutWg.Done()
			tid := h.RegisterThread()
			defer h.UnregisterThread(tid)
			rng := rand.New(rand.NewSource(seed))
			livePtr := make([]uint64, 0, 128)
			for i := 0; i < ops; i++ {
				if len(livePtr) > 0 && rng.Intn(2) == 0 {
					j := rng.Intn(len(livePtr))
					addr := livePtr[j]
					livePtr[j] = livePtr[len(livePtr)-1]
					livePtr = livePtr[:len(livePtr)-1]
					if err := h.Free(tid, addr); err != nil {
						t.Errorf("Free(%#x): %v", addr, err)
						return
					}
					continue
				}
				var size uint64
				switch rng.Intn(10) {
				case 0: // large: extent churn through the dirty lists
					size = uint64(1+rng.Intn(8)) * mem.PageSize
				case 1:
					size = SmallMax // whole-slab churn
				default:
					size = uint64(1 + rng.Intn(512))
				}
				addr, err := h.Malloc(tid, size)
				if err != nil {
					t.Errorf("Malloc(%d): %v", size, err)
					return
				}
				livePtr = append(livePtr, addr)
			}
			for _, addr := range livePtr {
				if err := h.Free(tid, addr); err != nil {
					t.Errorf("final Free(%#x): %v", addr, err)
					return
				}
			}
		}(int64(g) + 101)
	}

	// Wait for the mutators, then stop the lookup hammers.
	mutWg.Wait()
	close(stop)
	hamWg.Wait()
}

// lookupTargets allocates n live allocations, small and large, and returns
// one interior address of each.
func lookupTargets(b *testing.B, h *Heap, n int) []uint64 {
	tid := h.RegisterThread()
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, n)
	for i := range addrs {
		size := uint64(1 + rng.Intn(2048))
		if rng.Intn(4) == 0 {
			size = uint64(1+rng.Intn(8)) * mem.PageSize
		}
		addr, err := h.Malloc(tid, size)
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = addr + uint64(rng.Int63n(int64(size)))
	}
	return addrs
}

// BenchmarkLookup measures the page-table hit path free() rides: the heap
// filter, the page table's three loads, the region's owner and the extent's
// state and freemap checks.
func BenchmarkLookup(b *testing.B) {
	h := New(mem.NewAddressSpace(), DefaultConfig())
	const n = 1024
	addrs := lookupTargets(b, h, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := h.Lookup(addrs[i%n]); !ok {
			b.Fatal("lost mapping")
		}
	}
}

// BenchmarkLookupParallel is the same hit path under goroutine contention —
// all readers, which the lock-free page table serves without any shared
// writes.
func BenchmarkLookupParallel(b *testing.B) {
	h := New(mem.NewAddressSpace(), DefaultConfig())
	const n = 1024
	addrs := lookupTargets(b, h, n)
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := h.Lookup(addrs[i%n]); !ok {
				b.Fatal("lost mapping")
			}
			i++
		}
	})
}

// BenchmarkLookupMiss measures probes of unmapped in-range and out-of-range
// addresses — what the sweeper pays per non-pointer word it tests.
func BenchmarkLookupMiss(b *testing.B) {
	h := New(mem.NewAddressSpace(), DefaultConfig())
	lookupTargets(b, h, 4)
	probes := [...]uint64{
		mem.HeapBase + 1<<30, // in range, unmapped page
		mem.GlobalsBase,      // below the heap
		^uint64(0) >> 1,      // wild word
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := h.Lookup(probes[i%len(probes)]); ok {
			b.Fatal("phantom mapping")
		}
	}
}
