// Package dlmalloc implements a GNU-malloc-style allocator with IN-BAND
// metadata: chunk headers live in the heap one word before each allocation,
// and free chunks carry their free-list linkage (fd pointer) in their own
// first word — in simulated memory, where application bugs can reach them.
//
// It exists to make the paper's §2 footnote executable: "In non-secure
// allocators that store metadata in-place (e.g. GNU malloc), [use-after-free
// writes] may corrupt allocator metadata. JeMalloc, which MineSweeper is
// built upon, already stores metadata separately to avoid this." With this
// substrate, a single dangling-pointer write really does corrupt a free
// list and redirect a future malloc to an attacker-chosen address (the
// classic fd-poisoning primitive); under MineSweeper on the same substrate,
// the chunk never reaches a free list while the dangling pointer exists, so
// the primitive dies.
//
// Design (simplified glibc):
//
//   - chunks: [header | payload], header = payloadSize | flagInUse;
//   - segregated free lists per size class; free pushes the chunk with
//     chunk.fd written into payload word 0; malloc pops by READING fd from
//     heap memory (this trust in heap-resident metadata is the point);
//   - wilderness bump allocation from sbrk-style arena regions;
//   - no coalescing (keeps chunks stable; glibc fastbins behave similarly).
//
// A Go-side registry of live allocations supports Lookup/UsableSize for the
// drop-in layers; it mirrors, but is never trusted by, the in-band state —
// exactly how MineSweeper keeps its own out-of-line metadata regardless of
// substrate (§6.6).
package dlmalloc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"minesweeper/internal/alloc"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
)

const (
	// headerSize is the in-band chunk header before each payload.
	headerSize = mem.WordSize
	// flagInUse marks an allocated chunk in its header word.
	flagInUse uint64 = 1
	// arenaBytes is the sbrk extension unit.
	arenaBytes = 4 << 20
)

// Heap is the dlmalloc-style allocator.
type Heap struct {
	space *mem.AddressSpace

	mu     sync.Mutex
	region *mem.Region
	brk    uint64   // wilderness bump pointer within region
	bins   []uint64 // head chunk payload address per class, 0 = empty

	// live mirrors in-band state out of line for Lookup (the drop-in
	// layers' bookkeeping; never consulted by malloc/free fast paths).
	liveMu sync.RWMutex
	live   map[uint64]uint64 // payload base -> usable size

	allocated atomic.Int64
	mallocs   atomic.Uint64
	frees     atomic.Uint64
}

var _ alloc.Substrate = (*Heap)(nil)

// New returns a dlmalloc-style heap over space.
func New(space *mem.AddressSpace) *Heap {
	return &Heap{
		space: space,
		bins:  make([]uint64, jemalloc.NumClasses()),
		live:  make(map[uint64]uint64),
	}
}

// String returns the scheme name.
func (h *Heap) String() string { return "dlmalloc" }

// RegisterThread implements alloc.Allocator (single arena, no tcache —
// glibc's classic configuration).
func (h *Heap) RegisterThread() alloc.ThreadID { return 0 }

// UnregisterThread implements alloc.Allocator.
func (h *Heap) UnregisterThread(alloc.ThreadID) {}

// classFor returns the bin class for a payload size.
func classFor(size uint64) (int, uint64) {
	if size == 0 {
		size = 1
	}
	size++ // end-pointer pad, matching the other substrates
	if size > jemalloc.SmallMax {
		// Large chunks round to page-quantised sizes but still live in
		// the same arena with in-band headers.
		return -1, jemalloc.LargeAllocSize(size)
	}
	c := jemalloc.SizeToClass(size)
	return c, jemalloc.ClassSize(c)
}

// Malloc implements alloc.Allocator. The returned payload follows an in-band
// header; reuse pops the class's free list BY READING the fd word from heap
// memory.
func (h *Heap) Malloc(_ alloc.ThreadID, size uint64) (uint64, error) {
	class, csize := classFor(size)

	h.mu.Lock()
	var payload uint64
	if class >= 0 && h.bins[class] != 0 {
		payload = h.bins[class]
		// Trusting heap-resident metadata: the next head is whatever
		// the chunk's fd word says — corrupted or not.
		fd, err := h.space.Load64(payload)
		if err != nil {
			fd = 0 // unreadable fd: treat the list as exhausted
		}
		h.bins[class] = fd
		// Mark in use (in-band).
		_ = h.space.Store64(payload-headerSize, csize|flagInUse)
	} else {
		var err error
		payload, err = h.bump(csize)
		if err != nil {
			h.mu.Unlock()
			return 0, err
		}
	}
	h.mu.Unlock()

	h.liveMu.Lock()
	h.live[payload] = csize
	h.liveMu.Unlock()
	h.allocated.Add(int64(csize))
	h.mallocs.Add(1)
	return payload, nil
}

// bump carves a fresh chunk from the wilderness. Caller holds h.mu.
func (h *Heap) bump(csize uint64) (uint64, error) {
	need := headerSize + csize
	if h.region == nil || h.brk+need > h.region.End() {
		size := uint64(arenaBytes)
		if need > size {
			size = mem.PageCeil(need)
		}
		r, err := h.space.Map(mem.KindHeap, size, true)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", alloc.ErrOutOfMemory, err)
		}
		h.region = r
		h.brk = r.Base()
	}
	payload := h.brk + headerSize
	if err := h.space.Store64(h.brk, csize|flagInUse); err != nil {
		return 0, err
	}
	h.brk += need
	return payload, nil
}

// Free implements alloc.Allocator: validate the in-band header, clear the
// in-use flag, and push the chunk onto its class free list with fd written
// into the (freed) payload.
func (h *Heap) Free(_ alloc.ThreadID, addr uint64) error {
	hdr, err := h.space.Load64(addr - headerSize)
	if err != nil {
		return fmt.Errorf("%w: %#x", alloc.ErrInvalidFree, addr)
	}
	if hdr&flagInUse == 0 {
		return fmt.Errorf("%w: %#x", alloc.ErrDoubleFree, addr)
	}
	csize := hdr &^ flagInUse
	if csize == 0 || csize > 1<<32 {
		return fmt.Errorf("%w: %#x (corrupt header %#x)", alloc.ErrInvalidFree, addr, hdr)
	}
	class := -1
	if csize <= jemalloc.SmallMax {
		class = jemalloc.SizeToClass(csize)
	}

	// Leave the mirror before the chunk reaches a free list: once pushed,
	// a concurrent Malloc may pop it and re-register it, and a later
	// delete would drop that live allocation from the mirror.
	h.liveMu.Lock()
	delete(h.live, addr)
	h.liveMu.Unlock()

	h.mu.Lock()
	_ = h.space.Store64(addr-headerSize, csize) // clear in-use
	if class >= 0 {
		// fd = old head, written INTO the freed payload.
		_ = h.space.Store64(addr, h.bins[class])
		h.bins[class] = addr
	}
	// Large chunks are leaked back to the wilderness region only when the
	// whole region dies; classic dlmalloc keeps them via coalescing, which
	// we deliberately omit.
	h.mu.Unlock()

	h.allocated.Add(-int64(csize))
	h.frees.Add(1)
	return nil
}

// Lookup implements alloc.Substrate from the out-of-line mirror.
func (h *Heap) Lookup(addr uint64) (alloc.Allocation, bool) {
	h.liveMu.RLock()
	size, ok := h.live[addr]
	h.liveMu.RUnlock()
	if !ok {
		return alloc.Allocation{}, false
	}
	return alloc.Allocation{Base: addr, Size: size}, true
}

// FreeBatch implements alloc.Substrate per-item: every free re-reads an
// in-band header, so there is no shared structure to amortise across the
// batch.
func (h *Heap) FreeBatch(tid alloc.ThreadID, addrs []uint64, errs []error) {
	alloc.FreeBatchSerial(h, tid, addrs, errs)
}

// DecommitExtent implements alloc.Substrate: in-band chunks share pages with
// neighbours, so page release is unavailable (the drop-in layer copes, as
// with any allocator lacking the extension).
func (h *Heap) DecommitExtent(base uint64) error {
	return fmt.Errorf("%w: dlmalloc cannot release chunk pages", alloc.ErrInvalidFree)
}

// PurgeAll implements alloc.Substrate (no-op: no extent cache).
func (h *Heap) PurgeAll() {}

// AllocatedBytes implements alloc.Substrate.
func (h *Heap) AllocatedBytes() uint64 {
	v := h.allocated.Load()
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// UsableSize implements alloc.Allocator.
func (h *Heap) UsableSize(addr uint64) uint64 {
	a, ok := h.Lookup(addr)
	if !ok {
		return 0
	}
	return a.Size
}

// Tick implements alloc.Allocator.
func (h *Heap) Tick(uint64) {}

// BinHead returns the current free-list head for the class serving size
// (tests and the corruption demo).
func (h *Heap) BinHead(size uint64) uint64 {
	class, _ := classFor(size)
	if class < 0 {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bins[class]
}

// Stats implements alloc.Allocator.
func (h *Heap) Stats() alloc.Stats {
	h.liveMu.RLock()
	n := len(h.live)
	h.liveMu.RUnlock()
	return alloc.Stats{
		Allocated: h.AllocatedBytes(),
		Active:    h.space.RSS(),
		MetaBytes: uint64(n) * 24, // the out-of-line mirror only
		Mallocs:   h.mallocs.Load(),
		Frees:     h.frees.Load(),
	}
}

// Shutdown implements alloc.Allocator.
func (h *Heap) Shutdown() {}
