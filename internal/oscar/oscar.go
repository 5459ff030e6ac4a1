// Package oscar implements the Oscar baseline (Dang, Maniatis & Wagner,
// USENIX Security 2017): a practical page-permissions-based scheme for
// thwarting dangling pointers. Every allocation receives its own *virtual*
// page(s), while objects are co-located on shared *physical* pages through
// virtual aliases (Dhurjati & Adve's trick, which Oscar revives with a
// high-water-mark for address reuse). free() revokes the object's virtual
// pages; a dangling pointer then faults, and the virtual range is never
// handed to another allocation, so use-after-reallocate is impossible.
//
// Costs reproduced here match the paper's diagnosis (§6.3): every small
// allocation pays mapping work (a syscall-weight MapAlias) and retires
// virtual pages on free — "for small allocations, Oscar suffers high
// overheads from TLB pressure, system calls, and page-table size" — while
// physical memory stays shared, so its *memory* overhead is far milder than
// one-page-per-object would suggest. Large allocations behave like
// MineSweeper's unmapped quarantine: their physical pages are released at
// free.
package oscar

import (
	"fmt"
	"sync"
	"sync/atomic"

	"minesweeper/internal/alloc"
	"minesweeper/internal/mem"
)

// slabBytes is the physical slab size objects are co-located into.
const slabBytes = 256 << 10

// smallMax is the largest request served from slabs; larger objects get
// dedicated mappings.
const smallMax = 2048

// slab is one physical backing region being bump-filled.
type slab struct {
	region *mem.Region
	next   uint64 // bump offset within the slab
	live   int    // live objects in the slab
}

// object is Oscar's per-allocation metadata (page-table-adjacent state).
type object struct {
	alias *mem.Region // the object's own virtual pages
	slab  *slab       // nil for large objects
	size  uint64
}

// Heap is the Oscar-protected heap.
type Heap struct {
	space *mem.AddressSpace

	mu   sync.Mutex
	cur  *slab
	objs map[uint64]*object // virtual base -> object

	mallocs   atomic.Uint64
	frees     atomic.Uint64
	allocated atomic.Int64
	vaPages   atomic.Uint64 // virtual pages consumed (page-table pressure)
}

var _ alloc.Allocator = (*Heap)(nil)

// New builds an Oscar heap over space.
func New(space *mem.AddressSpace) *Heap {
	return &Heap{space: space, objs: make(map[uint64]*object)}
}

// String returns the scheme name.
func (h *Heap) String() string { return "oscar" }

// RegisterThread implements alloc.Allocator.
func (h *Heap) RegisterThread() alloc.ThreadID { return 0 }

// UnregisterThread implements alloc.Allocator.
func (h *Heap) UnregisterThread(alloc.ThreadID) {}

// Malloc implements alloc.Allocator. The returned address lies on virtual
// pages owned exclusively by this allocation.
func (h *Heap) Malloc(_ alloc.ThreadID, size uint64) (uint64, error) {
	if size == 0 {
		size = 1
	}
	size = (size + mem.WordSize) &^ (mem.WordSize - 1) // +1B end pad, word-aligned
	if size <= smallMax {
		return h.mallocSmall(size)
	}
	return h.mallocLarge(size)
}

func (h *Heap) mallocSmall(size uint64) (uint64, error) {
	h.mu.Lock()
	if h.cur == nil || h.cur.next+size > h.cur.region.Size() {
		r, err := h.space.Map(mem.KindHeap, slabBytes, true)
		if err != nil {
			h.mu.Unlock()
			return 0, fmt.Errorf("%w: %v", alloc.ErrOutOfMemory, err)
		}
		// A retired bump slab whose objects all died while it was
		// current is released now.
		if old := h.cur; old != nil && old.live == 0 {
			defer func() { _ = h.space.Unmap(old.region) }()
		}
		h.cur = &slab{region: r}
	}
	s := h.cur
	off := s.next
	s.next += size
	s.live++
	h.mu.Unlock()

	// Alias the physical page(s) the object spans into a fresh virtual
	// range — the per-allocation shadow Oscar creates.
	pageOff := off &^ (mem.PageSize - 1)
	span := mem.PageCeil(off+size) - pageOff
	alias, err := h.space.MapAlias(s.region, pageOff, span)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", alloc.ErrOutOfMemory, err)
	}
	h.vaPages.Add(span / mem.PageSize)
	base := alias.Base() + (off - pageOff)

	h.mu.Lock()
	h.objs[base] = &object{alias: alias, slab: s, size: size}
	h.mu.Unlock()
	h.mallocs.Add(1)
	h.allocated.Add(int64(size))
	return base, nil
}

func (h *Heap) mallocLarge(size uint64) (uint64, error) {
	r, err := h.space.Map(mem.KindHeap, size, true)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", alloc.ErrOutOfMemory, err)
	}
	h.vaPages.Add(r.Size() / mem.PageSize)
	h.mu.Lock()
	h.objs[r.Base()] = &object{alias: nil, size: size}
	h.mu.Unlock()
	h.mallocs.Add(1)
	h.allocated.Add(int64(size))
	return r.Base(), nil
}

// Free implements alloc.Allocator: revoke the object's virtual pages. The
// physical slab page is released once every object on it is dead.
func (h *Heap) Free(_ alloc.ThreadID, addr uint64) error {
	h.mu.Lock()
	o, ok := h.objs[addr]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("%w: %#x", alloc.ErrInvalidFree, addr)
	}
	delete(h.objs, addr)
	h.mu.Unlock()

	h.allocated.Add(-int64(o.size))
	if o.slab == nil {
		// Large object: unmap its dedicated region entirely.
		if r := h.space.Lookup(addr); r != nil {
			_ = h.space.Unmap(r)
		}
		h.frees.Add(1)
		return nil
	}

	// Revoke the virtual alias: dangling pointers now fault.
	_ = h.space.Unmap(o.alias)

	h.mu.Lock()
	o.slab.live--
	releaseSlab := o.slab.live == 0 && o.slab != h.cur
	h.mu.Unlock()
	if releaseSlab {
		// Every object co-located on this physical slab is dead.
		_ = h.space.Unmap(o.slab.region)
	}
	h.frees.Add(1)
	return nil
}

// UsableSize implements alloc.Allocator.
func (h *Heap) UsableSize(addr uint64) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if o, ok := h.objs[addr]; ok {
		return o.size
	}
	return 0
}

// Tick implements alloc.Allocator.
func (h *Heap) Tick(uint64) {}

// Stats implements alloc.Allocator.
func (h *Heap) Stats() alloc.Stats {
	h.mu.Lock()
	live := len(h.objs)
	h.mu.Unlock()
	allocated := h.allocated.Load()
	if allocated < 0 {
		allocated = 0
	}
	return alloc.Stats{
		Allocated: uint64(allocated),
		Active:    h.space.RSS(),
		// Each alias costs page-table state: the dominating metadata.
		MetaBytes: uint64(live)*96 + h.vaPages.Load()*8,
		Mallocs:   h.mallocs.Load(),
		Frees:     h.frees.Load(),
	}
}

// Shutdown implements alloc.Allocator.
func (h *Heap) Shutdown() {}
