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
// table. The Go collector is held off so TotalAlloc counts exactly the
// construction; the minimum of a few builds discards allocations made
// meanwhile by goroutines of other tests.
func TestNewHeapAllocatesLittle(t *testing.T) {
	const limit = 128 << 10
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
