// Package scudo implements a Scudo-style hardened allocator and pairs it
// with MineSweeper, reproducing the paper's §7 claim: "MineSweeper can be
// easily integrated with any allocator: we have also built a Scudo
// implementation at 4.4% overhead."
//
// The substrate mirrors the load-bearing properties of LLVM's Scudo:
//
//   - a primary allocator with per-class regions and *randomised* free lists
//     (hardening against deterministic reuse / heap feng shui);
//   - a secondary allocator for page-granular large allocations, separated
//     from the primary's address ranges by guard gaps;
//   - out-of-line chunk bookkeeping with state checks, so double frees and
//     wild frees are detected rather than corrupting metadata.
//
// It implements alloc.Substrate, so core.NewWithSubstrate drops the
// quarantine-and-sweep layer on top unchanged.
package scudo

import (
	"fmt"
	"sync"
	"sync/atomic"

	"minesweeper/internal/alloc"
	"minesweeper/internal/core"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
)

// Primary class regions start small and double as a class proves hot, so a
// mostly-idle class does not pin a megabyte (real Scudo sizes regions by
// class popularity too).
const (
	minRegionBytes = 64 << 10
	maxRegionBytes = 1 << 20
)

// Config controls the Scudo+MineSweeper pairing.
type Config struct {
	// Core overrides the MineSweeper layer configuration (nil = default),
	// its World included.
	Core *core.Config
}

// New builds a MineSweeper-protected Scudo heap.
func New(space *mem.AddressSpace, cfg Config) (*core.Heap, error) {
	sub := NewAllocator(space)
	ccfg := core.DefaultConfig()
	if cfg.Core != nil {
		ccfg = *cfg.Core
	}
	return core.NewWithSubstrate(space, ccfg, sub)
}

// chunk is the out-of-line bookkeeping for one allocation.
type chunk struct {
	size  uint64
	class int32 // -1 for secondary
	live  bool
}

type classState struct {
	mu         sync.Mutex
	region     *mem.Region
	next       uint64
	nextRegion uint64 // size of the next region mapped for this class
	freelist   []uint64
	rng        uint64
}

type secondaryExtent struct {
	region    *mem.Region
	committed bool
}

// Allocator is the Scudo-style substrate.
type Allocator struct {
	space   *mem.AddressSpace
	classes []classState

	chunkMu sync.RWMutex
	chunks  map[uint64]*chunk

	secMu    sync.Mutex
	secLive  map[uint64]*secondaryExtent
	secCache map[int][]*secondaryExtent // by page count

	allocated atomic.Int64
	mallocs   atomic.Uint64
	frees     atomic.Uint64
	purges    atomic.Uint64
}

var _ alloc.Substrate = (*Allocator)(nil)

// seed seeds the free-list randomisation.
const seed = 0x5C0D0

// NewAllocator returns the bare substrate (no quarantine layer).
func NewAllocator(space *mem.AddressSpace) *Allocator {
	a := &Allocator{
		space:    space,
		classes:  make([]classState, jemalloc.NumClasses()),
		chunks:   make(map[uint64]*chunk),
		secLive:  make(map[uint64]*secondaryExtent),
		secCache: make(map[int][]*secondaryExtent),
	}
	for i := range a.classes {
		a.classes[i].rng = seed + uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	return a
}

// String returns the substrate name.
func (a *Allocator) String() string { return "scudo" }

// RegisterThread implements alloc.Allocator (no per-thread caches: Scudo's
// shared-cache configuration).
func (a *Allocator) RegisterThread() alloc.ThreadID { return 0 }

// UnregisterThread implements alloc.Allocator.
func (a *Allocator) UnregisterThread(alloc.ThreadID) {}

func (cs *classState) random() uint64 {
	cs.rng ^= cs.rng << 13
	cs.rng ^= cs.rng >> 7
	cs.rng ^= cs.rng << 17
	return cs.rng
}

// Malloc implements alloc.Allocator. The +1 end-pointer pad matches the
// jemalloc substrate so the core layer's guarantees are identical.
func (a *Allocator) Malloc(_ alloc.ThreadID, size uint64) (uint64, error) {
	if size == 0 {
		size = 1
	}
	req := size + 1
	if jemalloc.IsSmall(req) {
		return a.mallocPrimary(req)
	}
	return a.mallocSecondary(req)
}

func (a *Allocator) mallocPrimary(req uint64) (uint64, error) {
	class := jemalloc.SizeToClass(req)
	cs := &a.classes[class]
	csize := jemalloc.ClassSize(class)

	cs.mu.Lock()
	var addr uint64
	if n := len(cs.freelist); n > 0 {
		// Randomised reuse: pop a random free chunk, not the most
		// recent one.
		i := int(cs.random() % uint64(n))
		addr = cs.freelist[i]
		cs.freelist[i] = cs.freelist[n-1]
		cs.freelist = cs.freelist[:n-1]
	} else {
		if cs.region == nil || cs.next+csize > cs.region.End() {
			if cs.nextRegion == 0 {
				cs.nextRegion = minRegionBytes
				if cs.nextRegion < csize {
					cs.nextRegion = mem.PageCeil(csize)
				}
			}
			r, err := a.space.Map(mem.KindHeap, cs.nextRegion, true)
			if err != nil {
				cs.mu.Unlock()
				return 0, fmt.Errorf("%w: %v", alloc.ErrOutOfMemory, err)
			}
			if cs.nextRegion < maxRegionBytes {
				cs.nextRegion *= 2
			}
			cs.region = r
			cs.next = r.Base()
		}
		addr = cs.next
		cs.next += csize
	}
	cs.mu.Unlock()

	a.chunkMu.Lock()
	a.chunks[addr] = &chunk{size: csize, class: int32(class), live: true}
	a.chunkMu.Unlock()
	a.allocated.Add(int64(csize))
	a.mallocs.Add(1)
	return addr, nil
}

func (a *Allocator) mallocSecondary(req uint64) (uint64, error) {
	pages := int(jemalloc.LargePages(req))
	a.secMu.Lock()
	var ext *secondaryExtent
	if list := a.secCache[pages]; len(list) > 0 {
		ext = list[len(list)-1]
		a.secCache[pages] = list[:len(list)-1]
	}
	a.secMu.Unlock()
	if ext == nil {
		r, err := a.space.Map(mem.KindHeap, uint64(pages)*mem.PageSize, true)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", alloc.ErrOutOfMemory, err)
		}
		ext = &secondaryExtent{region: r, committed: true}
	} else if !ext.committed {
		if err := a.space.Commit(ext.region.Base(), ext.region.Size(), mem.ProtRW); err != nil {
			return 0, err
		}
		ext.committed = true
	}
	base := ext.region.Base()
	size := ext.region.Size()
	a.secMu.Lock()
	a.secLive[base] = ext
	a.secMu.Unlock()
	a.chunkMu.Lock()
	a.chunks[base] = &chunk{size: size, class: -1, live: true}
	a.chunkMu.Unlock()
	a.allocated.Add(int64(size))
	a.mallocs.Add(1)
	return base, nil
}

// Free implements alloc.Allocator with Scudo's state checking: wild and
// double frees are detected via the out-of-line chunk state.
func (a *Allocator) Free(_ alloc.ThreadID, addr uint64) error {
	a.chunkMu.Lock()
	c, ok := a.chunks[addr]
	if !ok {
		a.chunkMu.Unlock()
		return fmt.Errorf("%w: %#x", alloc.ErrInvalidFree, addr)
	}
	if !c.live {
		a.chunkMu.Unlock()
		return fmt.Errorf("%w: %#x", alloc.ErrDoubleFree, addr)
	}
	c.live = false
	a.chunkMu.Unlock()
	// The chunk is dead: return its storage to the class freelist or the
	// secondary cache.
	if c.class >= 0 {
		cs := &a.classes[c.class]
		cs.mu.Lock()
		cs.freelist = append(cs.freelist, addr)
		cs.mu.Unlock()
	} else {
		a.secMu.Lock()
		ext := a.secLive[addr]
		delete(a.secLive, addr)
		pages := int(ext.region.Size() / mem.PageSize)
		a.secCache[pages] = append(a.secCache[pages], ext)
		a.secMu.Unlock()
	}
	a.allocated.Add(-int64(c.size))
	a.frees.Add(1)
	return nil
}

// FreeBatch implements alloc.Substrate per-item: Scudo's chunk state flip and
// freelist push are two short critical sections per free already, so the
// serial fallback is adequate for the release path.
func (a *Allocator) FreeBatch(tid alloc.ThreadID, addrs []uint64, errs []error) {
	alloc.FreeBatchSerial(a, tid, addrs, errs)
}

// Lookup implements alloc.Substrate. Scudo's chunk registry is exact-base
// only; interior pointers do not resolve (the core layer requires exact
// bases for free()).
func (a *Allocator) Lookup(addr uint64) (alloc.Allocation, bool) {
	a.chunkMu.RLock()
	c, ok := a.chunks[addr]
	a.chunkMu.RUnlock()
	if !ok || !c.live {
		return alloc.Allocation{}, false
	}
	return alloc.Allocation{Base: addr, Size: c.size, Large: c.class < 0}, true
}

// DecommitExtent implements alloc.Substrate for live secondary allocations.
func (a *Allocator) DecommitExtent(base uint64) error {
	a.secMu.Lock()
	defer a.secMu.Unlock()
	ext, ok := a.secLive[base]
	if !ok {
		return fmt.Errorf("%w: %#x is not a live large allocation", alloc.ErrInvalidFree, base)
	}
	if !ext.committed {
		return nil
	}
	if err := a.space.Decommit(ext.region.Base(), ext.region.Size()); err != nil {
		return err
	}
	ext.committed = false
	return nil
}

// PurgeAll implements alloc.Substrate: decommit the secondary cache.
func (a *Allocator) PurgeAll() {
	a.secMu.Lock()
	defer a.secMu.Unlock()
	for _, list := range a.secCache {
		for _, ext := range list {
			if ext.committed {
				_ = a.space.Decommit(ext.region.Base(), ext.region.Size())
				ext.committed = false
			}
		}
	}
	a.purges.Add(1)
}

// AllocatedBytes implements alloc.Substrate.
func (a *Allocator) AllocatedBytes() uint64 {
	v := a.allocated.Load()
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// UsableSize implements alloc.Allocator.
func (a *Allocator) UsableSize(addr uint64) uint64 {
	al, ok := a.Lookup(addr)
	if !ok {
		return 0
	}
	return al.Size
}

// Tick implements alloc.Allocator (no decay machinery).
func (a *Allocator) Tick(uint64) {}

// Stats implements alloc.Allocator.
func (a *Allocator) Stats() alloc.Stats {
	a.chunkMu.RLock()
	meta := uint64(len(a.chunks)) * 48
	a.chunkMu.RUnlock()
	return alloc.Stats{
		Allocated: a.AllocatedBytes(),
		Active:    a.space.RSS(),
		MetaBytes: meta,
		Mallocs:   a.mallocs.Load(),
		Frees:     a.frees.Load(),
		Purges:    a.purges.Load(),
	}
}

// Shutdown implements alloc.Allocator.
func (a *Allocator) Shutdown() {}
