package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
)

// TestNewHeapAllocatesLittle pins the build cost of a protected heap. The
// shadow map's chunk directory and the address space's page table are
// sparse, so a build pays only their roots (2 KiB and 8 KiB) for them, not a
// slot for every chunk or page-table leaf of the ranges they cover, and
// jemalloc keeps no page map of its own: it finds extents through that page
// table. A thread cache allocates each class's stack on its first push, so
// the recycle threads registered per sweep worker, which free through
// FreeBatch and never push, cost their bin headers only. The Go collector is held off so TotalAlloc counts exactly the
// construction; the minimum of a few builds discards allocations made
// meanwhile by goroutines of other tests.
func TestNewHeapAllocatesLittle(t *testing.T) {
	const limit = 32 << 10
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var h *Heap
		n := allocatedBy(func() {
			var err error
			h, err = New(mem.NewAddressSpace(), DefaultConfig(), jemalloc.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
		})
		h.Shutdown()
		best = min(best, n)
	}
	t.Logf("core.New allocated %d bytes", best)
	if best >= limit {
		t.Fatalf("core.New allocated %d bytes, want < %d", best, limit)
	}
}

// BenchmarkNewHeap times what a benchmark run's setup pays to build and tear
// down a protected heap: core.New over a fresh address space, then Shutdown.
// Run it with -benchmem; its allocations are TestNewHeapAllocatesLittle's.
func BenchmarkNewHeap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h, err := New(mem.NewAddressSpace(), DefaultConfig(), jemalloc.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		h.Shutdown()
	}
}

// allocatedBy returns the bytes of Go heap f allocates, with the collector
// off.
func allocatedBy(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
