package jemalloc

import (
	"math/bits"
	"sync/atomic"

	"minesweeper/internal/mem"
)

// ExtentHooks is the allocator's interface to physical-memory management,
// mirroring jemalloc's extent_hooks_t. The default hooks commit and decommit
// pages directly, and the MineSweeper layer keeps them: a decommit clears the
// pages' resident bits and access in mem, which is where sweeps and the
// quarantine's unmapped accounting read residency (§4.5: "we hook onto
// JeMalloc's extent management via the extent hook API ... instead of a purge
// call and demand-allocation, we use a pair of calls: decommit and commit").
// Callers may install their own hooks to observe or time those calls.
type ExtentHooks interface {
	// Commit makes [base, base+size) resident and accessible.
	Commit(space *mem.AddressSpace, base, size uint64) error
	// Decommit discards the physical backing of [base, base+size) and
	// makes it inaccessible.
	Decommit(space *mem.AddressSpace, base, size uint64) error
}

// DefaultHooks commits and decommits pages with ProtRW and no bookkeeping.
type DefaultHooks struct{}

// Commit implements ExtentHooks.
func (DefaultHooks) Commit(space *mem.AddressSpace, base, size uint64) error {
	return space.Commit(base, size, mem.ProtRW)
}

// Decommit implements ExtentHooks.
func (DefaultHooks) Decommit(space *mem.AddressSpace, base, size uint64) error {
	return space.Decommit(base, size)
}

// Extent life-cycle states. An extent is created free, becomes a slab or a
// large allocation, and returns to free on the arena's dirty lists — over and
// over, since extent metadata is never destroyed. The state word is the
// atomic publication point for reuse: init* writes every descriptive field
// first and stores the state last, so a lock-free reader that observes the
// state also observes the fields behind it (and a reader holding a stale
// state reads bounded, older-incarnation values that its caller re-validates,
// exactly as with the seed's RWMutex map, which also never protected the
// extent's own fields).
const (
	extStateFree uint32 = iota // on a dirty list, or freshly created
	extStateSlab
	extStateLarge
)

// Extent is a contiguous run of pages managed by the arena: either a slab
// (carved into equal small regions) or a single large allocation. Extent
// metadata lives out of line in Go memory, never in the simulated address
// space — the property the paper relies on for metadata safety.
//
// The free() fast path reads extents through the lock-free page table, so the
// fields that path touches — state, class, regSize and the two bitmaps — are
// atomic. The bitmap slice headers are written once (first initSlab) and
// never reallocated: they are sized for the smallest class the extent could
// ever host, so every later initSlab fits in place and stale readers can
// never index out of bounds.
type Extent struct {
	base uint64
	size uint64 // bytes, page multiple; immutable after creation
	// shard is the index of the arena/bin shard that owns the extent. An
	// extent never migrates between shards (it returns to its arena's dirty
	// lists forever), so the field is immutable after creation and routes
	// cross-thread frees back to the owning shard's bin set.
	shard int32

	state   atomic.Uint32 // extStateFree / extStateSlab / extStateLarge
	class   atomic.Int32  // slab size class; stale across reuse, gated by state
	regSize atomic.Uint64 // slab region size; never reset to zero once set

	nregs int // slab region count; owning bin's lock
	nfree int // free region count; owning bin's lock
	words int // freemap words in use for the current class; owning bin's lock
	// nonfullIdx is the extent's position in its bin's nonfull list, or -1
	// when it is not listed (current slab, full slab, or free). Owning bin's
	// lock. It makes removal on slab release O(1) instead of a linear scan.
	nonfullIdx int32

	// freemap words (bit set = region free) are written only under the
	// owning bin's lock but read lock-free by Lookup/UsableSize (the
	// quarantine's validation path), so all accesses are atomic.
	freemap []uint64
	// cachemap words (bit set = region is sitting in some thread's tcache)
	// give free() an O(1) double-free membership check, replacing the
	// seed's linear scan of the tcache stack. Bits are set and cleared by
	// the cache's owning thread but read by any thread freeing into the
	// slab, so all accesses are atomic. Unlike the seed's check — which
	// only saw the freeing thread's own cache — the shared bitmap also
	// catches a double free whose first free is cached on another thread.
	cachemap []uint64

	committed  bool   // physical backing present; arena lock or exclusive owner
	dirtyStamp uint64 // virtual time when placed on the dirty list; arena lock
}

// isSlab reports whether the extent currently backs a slab.
func (e *Extent) isSlab() bool { return e.state.Load() == extStateSlab }

// isLarge reports whether a live large allocation occupies the extent.
func (e *Extent) isLarge() bool { return e.state.Load() == extStateLarge }

// Base returns the extent's first address.
func (e *Extent) Base() uint64 { return e.base }

// Size returns the extent's size in bytes.
func (e *Extent) Size() uint64 { return e.size }

// pages returns the extent's size in pages.
func (e *Extent) pages() int { return int(e.size / mem.PageSize) }

// initSlab configures the extent as an all-free slab of the given class. The
// caller holds the owning bin's lock. Field writes precede the state store,
// which publishes them to lock-free readers.
func (e *Extent) initSlab(class int) {
	e.class.Store(int32(class))
	e.regSize.Store(ClassSize(class))
	e.nregs = int(e.size / ClassSize(class))
	e.words = (e.nregs + 63) / 64
	if e.freemap == nil {
		// First time as a slab: size the bitmaps for the smallest class
		// the extent could ever host, once and for all. The slice
		// headers stay immutable from here on, so stale lock-free
		// readers can never observe a torn or undersized header.
		maxWords := int(e.size/ClassSize(0)+63) / 64
		e.freemap = make([]uint64, maxWords)
		e.cachemap = make([]uint64, maxWords)
	}
	for i := 0; i < e.words; i++ {
		atomic.StoreUint64(&e.freemap[i], ^uint64(0))
		atomic.StoreUint64(&e.cachemap[i], 0)
	}
	// Clear bits past nregs so popcounts stay honest.
	if rem := e.nregs % 64; rem != 0 {
		atomic.StoreUint64(&e.freemap[e.words-1], (1<<rem)-1)
	}
	e.nfree = e.nregs
	e.nonfullIdx = -1
	e.state.Store(extStateSlab)
}

// initLarge configures the extent as a single large allocation. Slab
// descriptors (class, regSize, bitmaps) are deliberately left as the previous
// slab incarnation wrote them: a reader holding a stale slab state must keep
// seeing nonzero, in-bounds values.
func (e *Extent) initLarge() {
	e.state.Store(extStateLarge)
}

// popRegion allocates the lowest-index free region and returns its address
// and region index. The caller must hold the owning bin's lock and have
// checked nfree > 0.
func (e *Extent) popRegion() (uint64, int) {
	for w := 0; w < e.words; w++ {
		word := atomic.LoadUint64(&e.freemap[w])
		if word != 0 {
			bit := bits.TrailingZeros64(word)
			atomic.StoreUint64(&e.freemap[w], word&^(1<<bit))
			e.nfree--
			idx := w*64 + bit
			return e.base + uint64(idx)*e.regSize.Load(), idx
		}
	}
	panic("jemalloc: popRegion on full slab")
}

// regionIndex returns the region index containing addr, which must lie in
// the extent.
func (e *Extent) regionIndex(addr uint64) int {
	return int((addr - e.base) / e.regSize.Load())
}

// regionBase returns the base address of region i.
func (e *Extent) regionBase(i int) uint64 { return e.base + uint64(i)*e.regSize.Load() }

// regionFree reports whether region i is free.
func (e *Extent) regionFree(i int) bool {
	return atomic.LoadUint64(&e.freemap[i/64])&(1<<(i%64)) != 0
}

// pushRegion returns region i to the slab. The caller must hold the owning
// bin's lock; the region must be allocated.
func (e *Extent) pushRegion(i int) {
	atomic.OrUint64(&e.freemap[i/64], 1<<(i%64))
	e.nfree++
}

// regionCached reports whether region i currently sits in a thread cache.
func (e *Extent) regionCached(i int) bool {
	return atomic.LoadUint64(&e.cachemap[i/64])&(1<<(i%64)) != 0
}

// cacheRegion marks region i as tcache-resident.
func (e *Extent) cacheRegion(i int) {
	atomic.OrUint64(&e.cachemap[i/64], 1<<(i%64))
}

// uncacheRegion clears region i's tcache-residency mark.
func (e *Extent) uncacheRegion(i int) {
	atomic.AndUint64(&e.cachemap[i/64], ^(uint64(1) << (i % 64)))
}
