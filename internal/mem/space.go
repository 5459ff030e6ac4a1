package mem

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Address-space layout. Each kind of mapping gets its own area so that the
// heap occupies one contiguous reservable range: the shadow map indexes it
// with a constant-time subtract/shift, and the sweeper's "does this word look
// like a heap pointer" filter is two compares, exactly as in the paper.
const (
	// GlobalsBase is where the simulated globals segment is mapped.
	GlobalsBase uint64 = 0x0000_0000_4000_0000
	// GlobalsLimit bounds the globals area.
	GlobalsLimit uint64 = 0x0000_0001_0000_0000
	// HeapBase is the first heap address.
	HeapBase uint64 = 0x0000_1000_0000_0000
	// HeapLimit bounds the heap area (1 TiB of reservable heap VA, enough
	// for FFMalloc's never-reuse-an-address policy).
	HeapLimit uint64 = 0x0000_1100_0000_0000
	// StackBase is where mutator stacks are mapped.
	StackBase uint64 = 0x0000_7000_0000_0000
	// StackLimit bounds the stack area.
	StackLimit uint64 = 0x0000_7100_0000_0000
)

// guardGap is the unmapped gap left between consecutive regions so that
// off-by-one pointer bugs fault instead of silently landing in a neighbour.
const guardGap = PageSize

// Stats is a snapshot of address-space accounting.
type Stats struct {
	// RSS is resident (committed) memory in bytes — the simulated
	// equivalent of the physical footprint psrecord measures in the paper.
	RSS uint64
	// Mapped is total mapped virtual memory in bytes.
	Mapped uint64
	// Regions is the number of live regions.
	Regions int
	// Faults counts invalid accesses observed (each is the simulated
	// equivalent of a SIGSEGV).
	Faults uint64
}

// Radix page-table geometry: lookups resolve a page number (addr >> 12) in
// three steps, like a multi-level hardware page table. The top table, indexed
// by addr bits [46:37] (128 GiB each), is 1,024 slots (8 KiB) and stays in
// cache; each mid table, indexed by bits [36:24] (16 MiB each), holds 8,192
// leaf pointers (64 KiB); each leaf maps the 4,096 pages of one 16 MiB
// granule by bits [23:12] (32 KiB). Mid tables and leaves are installed on
// the first Map in their range, so an address space costs only its top table
// until it maps something, and a small process's globals, heap and stack cost
// a mid table and a leaf each. This makes Lookup O(1) like hardware address
// translation — essential because quarantining schemes can pin thousands of
// extents, and a per-access cost that grew with extent count would be a
// simulator artifact, not a property of the schemes under study.
const (
	radixMidShift  = 37
	radixLeafShift = 24
	radixTopSize   = 1 << (47 - radixMidShift) // covers the 47-bit layout
	radixMidSize   = 1 << (radixMidShift - radixLeafShift)
	radixLeafSize  = 1 << (radixLeafShift - PageShift)
)

type (
	radixLeaf [radixLeafSize]atomic.Pointer[Region]
	radixMid  [radixMidSize]atomic.Pointer[radixLeaf]
)

// AddressSpace is a sparse simulated 64-bit virtual address space. Mapping
// changes take a mutex; address lookups are lock-free constant-time radix
// walks, so mutator threads and sweeper threads scale without contending.
type AddressSpace struct {
	mu       sync.Mutex
	set      map[uint64]*Region        // live regions by base
	snapshot atomic.Pointer[[]*Region] // sorted by base; rebuilt lazily
	stale    atomic.Bool               // snapshot needs rebuilding
	radix    [radixTopSize]atomic.Pointer[radixMid]
	nextHeap uint64
	nextStk  uint64
	nextGbl  uint64

	rss    atomic.Int64 // resident bytes
	mapped atomic.Int64 // mapped bytes
	faults atomic.Uint64

	// Dirty tracking for the pipelined sweep: dirtyPages counts pages whose
	// soft-dirty bit is currently set (every set/clear transition adjusts
	// it), and dirtyRegs lists each region dirtied since the last
	// ClearSoftDirty, appended once per region per window by the store that
	// first dirties it. Together they give the sweep an O(1) budget check
	// and O(dirtied-regions) dirty passes — crucial inside a stop-the-world
	// window, where walking an extent-granular region set that can reach
	// tens of thousands of entries would put the pause back on an O(heap)
	// slope.
	dirtyPages atomic.Int64
	dirtyMu    sync.Mutex
	dirtyRegs  []*Region

	// zeroElided counts bytes whose zeroing was skipped because the target
	// pages were already known-zero — the Zero/commit-side payoff of the
	// known-zero map (the sweep-side payoff is counted by the sweeper).
	zeroElided atomic.Uint64

	// backing pools recycle word-slice backings by size so that extent
	// commit/decommit cycles (quarantine unmapping, purging) do not churn
	// the host garbage collector — the real system's counterpart is the
	// kernel's free-page pool. A plain free stack per size rather than a
	// sync.Pool: the pool is emptied at every GC cycle, so each
	// purge-after-sweep decommit/recommit round trip reallocated the
	// heap's whole backing, and those large zeroed allocations in turn
	// drove the next GC cycle.
	backingMu sync.Mutex
	backing   map[int][][]uint64 // words count -> free backings

	// backingWords bounds the pool: total retained words across all sizes.
	backingWords int
}

// maxBackingWords caps retained backing at 512 MiB worth of words; beyond
// that, dropped backings are left to the garbage collector.
const maxBackingWords = 512 << 20 / 8

// getBacking returns a zeroed backing of the given word count, reusing a
// pooled one when available. Pooled backings are already zero: every
// putBacking caller clears the frame first.
func (as *AddressSpace) getBacking(words int) []uint64 {
	as.backingMu.Lock()
	if list := as.backing[words]; len(list) > 0 {
		s := list[len(list)-1]
		list[len(list)-1] = nil
		as.backing[words] = list[:len(list)-1]
		as.backingWords -= words
		as.backingMu.Unlock()
		return s
	}
	as.backingMu.Unlock()
	return make([]uint64, words)
}

// putBacking returns a dropped, all-zero backing to the pool.
func (as *AddressSpace) putBacking(s []uint64) {
	as.backingMu.Lock()
	if as.backingWords+len(s) <= maxBackingWords {
		if as.backing == nil {
			as.backing = make(map[int][][]uint64)
		}
		as.backing[len(s)] = append(as.backing[len(s)], s)
		as.backingWords += len(s)
	}
	as.backingMu.Unlock()
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	as := &AddressSpace{
		set:      make(map[uint64]*Region),
		nextHeap: HeapBase,
		nextStk:  StackBase,
		nextGbl:  GlobalsBase,
	}
	empty := make([]*Region, 0)
	as.snapshot.Store(&empty)
	return as
}

// regions returns a sorted region snapshot, rebuilding it only when the
// region set changed since the last call. Mapping and unmapping are O(pages)
// — allocator-rate operations must not pay O(regions).
func (as *AddressSpace) regions() []*Region {
	if !as.stale.Load() {
		return *as.snapshot.Load()
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	if !as.stale.Load() {
		return *as.snapshot.Load()
	}
	nw := make([]*Region, 0, len(as.set))
	for _, r := range as.set {
		nw = append(nw, r)
	}
	sort.Slice(nw, func(i, j int) bool { return nw[i].base < nw[j].base })
	as.snapshot.Store(&nw)
	as.stale.Store(false)
	return nw
}

// Lookup returns the region containing addr, or nil.
func (as *AddressSpace) Lookup(addr uint64) *Region {
	top := addr >> radixMidShift
	if top >= radixTopSize {
		return nil
	}
	mid := as.radix[top].Load()
	if mid == nil {
		return nil
	}
	leaf := mid[(addr>>radixLeafShift)&(radixMidSize-1)].Load()
	if leaf == nil {
		return nil
	}
	return leaf[(addr>>PageShift)&(radixLeafSize-1)].Load()
}

// radixInsert points every page of r at r, installing mid tables and leaves
// on first use. Caller holds as.mu.
func (as *AddressSpace) radixInsert(r *Region) {
	for addr := r.base; addr < r.base+r.size; addr += PageSize {
		top := &as.radix[addr>>radixMidShift]
		mid := top.Load()
		if mid == nil {
			mid = new(radixMid)
			top.Store(mid)
		}
		slot := &mid[(addr>>radixLeafShift)&(radixMidSize-1)]
		leaf := slot.Load()
		if leaf == nil {
			leaf = new(radixLeaf)
			slot.Store(leaf)
		}
		leaf[(addr>>PageShift)&(radixLeafSize-1)].Store(r)
	}
}

// radixRemove clears every page of r. Tables stay installed for the next
// mapping in their range. Caller holds as.mu.
func (as *AddressSpace) radixRemove(r *Region) {
	for addr := r.base; addr < r.base+r.size; addr += PageSize {
		mid := as.radix[addr>>radixMidShift].Load()
		if mid == nil {
			continue
		}
		if leaf := mid[(addr>>radixLeafShift)&(radixMidSize-1)].Load(); leaf != nil {
			leaf[(addr>>PageShift)&(radixLeafSize-1)].Store(nil)
		}
	}
}

// Map reserves and maps a new region of the given kind. Size is rounded up to
// a whole number of pages. If committed is true all pages are resident with
// ProtRW; otherwise the region is reserved only (no backing, all accesses
// fault until Commit).
func (as *AddressSpace) Map(kind Kind, size uint64, committed bool) (*Region, error) {
	if size == 0 {
		return nil, fmt.Errorf("mem: Map: zero size")
	}
	size = PageCeil(size)

	as.mu.Lock()
	defer as.mu.Unlock()

	var base uint64
	switch kind {
	case KindHeap:
		base = as.nextHeap
		if base+size+guardGap > HeapLimit {
			return nil, fmt.Errorf("mem: Map: heap area exhausted (%d bytes requested)", size)
		}
		as.nextHeap = base + size + guardGap
	case KindStack:
		base = as.nextStk
		if base+size+guardGap > StackLimit {
			return nil, fmt.Errorf("mem: Map: stack area exhausted")
		}
		as.nextStk = base + size + guardGap
	case KindGlobals:
		base = as.nextGbl
		if base+size+guardGap > GlobalsLimit {
			return nil, fmt.Errorf("mem: Map: globals area exhausted")
		}
		as.nextGbl = base + size + guardGap
	default:
		return nil, fmt.Errorf("mem: Map: unknown kind %v", kind)
	}

	r := &Region{
		space:    as,
		base:     base,
		size:     size,
		kind:     kind,
		pages:    make([]atomic.Uint32, size/PageSize),
		dirtySum: make([]atomic.Uint64, (size/PageSize+63)/64),
		zeroSum:  make([]atomic.Uint64, (size/PageSize+63)/64),
	}
	if committed {
		r.ensureBacking()
		// Fresh committed mappings are zero-filled by construction, so
		// every page starts known-zero: untouched pages of a new extent
		// cost the sweeper nothing.
		bits := pageResident | pageRead | pageWrite | pageKnownZero
		for i := range r.pages {
			r.pages[i].Store(bits)
		}
		for i := range r.zeroSum {
			r.zeroSum[i].Store(^uint64(0))
		}
		r.resident.Store(int32(size / PageSize))
		as.rss.Add(int64(size))
	}
	as.mapped.Add(int64(size))

	as.set[base] = r
	as.stale.Store(true)
	as.radixInsert(r)
	return r, nil
}

// Unmap removes a region entirely. Subsequent accesses to its range fault
// with CauseUnmapped, and its host backing becomes collectable.
func (as *AddressSpace) Unmap(r *Region) error {
	as.mu.Lock()
	defer as.mu.Unlock()

	if as.set[r.base] != r {
		return fmt.Errorf("mem: Unmap: region %#x not mapped", r.base)
	}
	// Decommit every page so stale references to the region (e.g. a
	// thread's cached region) fault on access rather than reading freed
	// memory. That also zeroes the backing and drops it to the pool.
	released := r.decommit(r.base, r.size)
	if r.parent == nil {
		as.rss.Add(-int64(released * PageSize))
	}
	as.mapped.Add(-int64(r.size))

	delete(as.set, r.base)
	as.stale.Store(true)
	as.radixRemove(r)
	return nil
}

// resolveRange locates the single region containing [addr, addr+n) with page
// alignment checks. All page-granular operations require the range to lie
// within one region, which holds for every caller (extents and pools map one
// region each).
func (as *AddressSpace) resolveRange(op string, addr, n uint64) (*Region, error) {
	if addr&(PageSize-1) != 0 || n&(PageSize-1) != 0 || n == 0 {
		return nil, fmt.Errorf("mem: %s: range %#x+%#x not page-aligned", op, addr, n)
	}
	r := as.Lookup(addr)
	if r == nil || addr+n > r.End() {
		return nil, fmt.Errorf("mem: %s: range %#x+%#x not within one region", op, addr, n)
	}
	return r, nil
}

// Commit makes pages [addr, addr+n) resident with protection prot, zero-filled
// if they were not already resident; a page already resident keeps its words
// and page state, and takes only the new protection. It is the simulated
// mmap-commit half of jemalloc's extent hook pair. Alias pages contribute no RSS (the parent's
// frames are the physical memory).
func (as *AddressSpace) Commit(addr, n uint64, prot Prot) error {
	r, err := as.resolveRange("Commit", addr, n)
	if err != nil {
		return err
	}
	newly := r.commit(addr, n, prot)
	if !r.IsAlias() {
		as.rss.Add(int64(newly * PageSize))
	}
	return nil
}

// Decommit releases the physical backing of pages [addr, addr+n): contents are
// discarded, residency is cleared and all access faults. It is the simulated
// madvise(DONTNEED)+mprotect(NONE) pair MineSweeper uses for unmapped
// quarantined pages.
func (as *AddressSpace) Decommit(addr, n uint64) error {
	r, err := as.resolveRange("Decommit", addr, n)
	if err != nil {
		return err
	}
	released := r.decommit(addr, n)
	if !r.IsAlias() {
		as.rss.Add(-int64(released * PageSize))
	}
	return nil
}

// Protect changes the protection of pages [addr, addr+n) without affecting
// residency — the simulated mprotect.
func (as *AddressSpace) Protect(addr, n uint64, prot Prot) error {
	r, err := as.resolveRange("Protect", addr, n)
	if err != nil {
		return err
	}
	r.protect(addr, n, prot)
	return nil
}

// MapAlias maps a new virtual region exposing [offset, offset+size) of
// parent's physical memory in the heap area — the virtual-page aliasing
// page-permission schemes (Oscar) use to give each object its own virtual
// page while co-locating objects physically. offset and size must be
// page-aligned; parent must not itself be an alias. The alias starts
// resident and read-write; its residency is bookkeeping only (no RSS).
func (as *AddressSpace) MapAlias(parent *Region, offset, size uint64) (*Region, error) {
	if parent == nil || parent.IsAlias() {
		return nil, fmt.Errorf("mem: MapAlias: invalid parent")
	}
	if offset%PageSize != 0 || size%PageSize != 0 || size == 0 || offset+size > parent.Size() {
		return nil, fmt.Errorf("mem: MapAlias: window %#x+%#x not page-aligned within parent", offset, size)
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	base := as.nextHeap
	if base+size+guardGap > HeapLimit {
		return nil, fmt.Errorf("mem: MapAlias: heap area exhausted")
	}
	as.nextHeap = base + size + guardGap

	r := &Region{
		space:     as,
		base:      base,
		size:      size,
		kind:      KindHeap,
		pages:     make([]atomic.Uint32, size/PageSize),
		dirtySum:  make([]atomic.Uint64, (size/PageSize+63)/64),
		zeroSum:   make([]atomic.Uint64, (size/PageSize+63)/64),
		parent:    parent,
		parentOff: offset,
	}
	bits := pageResident | pageRead | pageWrite
	for i := range r.pages {
		r.pages[i].Store(bits)
	}
	r.resident.Store(int32(size / PageSize))
	as.mapped.Add(int64(size))
	as.set[base] = r
	as.stale.Store(true)
	as.radixInsert(r)
	return r, nil
}

// Load64 performs a checked, atomic load of the word at addr.
func (as *AddressSpace) Load64(addr uint64) (uint64, error) {
	r := as.Lookup(addr)
	if r == nil {
		as.faults.Add(1)
		return 0, &Fault{Addr: addr, Cause: CauseUnmapped}
	}
	v, err := r.load(addr)
	if err != nil {
		as.faults.Add(1)
	}
	return v, err
}

// Store64 performs a checked, atomic store of v at addr, setting the
// containing page's soft-dirty bit.
func (as *AddressSpace) Store64(addr, v uint64) error {
	r := as.Lookup(addr)
	if r == nil {
		as.faults.Add(1)
		return &Fault{Addr: addr, Write: true, Cause: CauseUnmapped}
	}
	if err := r.store(addr, v); err != nil {
		as.faults.Add(1)
		return err
	}
	return nil
}

// Zero zeroes the word-aligned range [addr, addr+n) without protection
// checks; it is the allocator's memset primitive (zero-on-free, commit fill).
// The range must lie within one region.
func (as *AddressSpace) Zero(addr, n uint64) error {
	if !WordAligned(addr) || n&(WordSize-1) != 0 {
		return fmt.Errorf("mem: Zero: range %#x+%#x not word-aligned", addr, n)
	}
	if n == 0 {
		return nil
	}
	r := as.Lookup(addr)
	if r == nil || addr+n > r.End() {
		return fmt.Errorf("mem: Zero: range %#x+%#x not within one region", addr, n)
	}
	r.zeroRange(addr, n)
	return nil
}

// ZeroElidedBytes returns the total bytes whose zeroing was skipped because
// the target pages were already known-zero (zero-on-free over fresh or
// re-zeroed pages, commit over purged pages).
func (as *AddressSpace) ZeroElidedBytes() uint64 { return as.zeroElided.Load() }

// ClearSoftDirty clears the soft-dirty bit on every page of every region, the
// analogue of writing "4" to /proc/pid/clear_refs before a mostly-concurrent
// sweep. Only regions on the dirtied list need visiting: a dirty bit is set
// exclusively by store(), which lists the region before completing, so after
// a ClearSoftDirty the only dirty pages anywhere belong to racing writers —
// who are re-listing their regions for the next window. The taken list's
// backing is surrendered (not recycled): concurrent writers append to a
// fresh list while this one is still being walked.
func (as *AddressSpace) ClearSoftDirty() {
	as.dirtyMu.Lock()
	regs := as.dirtyRegs
	as.dirtyRegs = nil
	as.dirtyMu.Unlock()
	for _, r := range regs {
		r.clearSoftDirty()
	}
}

// addDirtyRegion records the first dirtying of r since the last
// ClearSoftDirty. Called once per region per dirty window (store's
// region-listed flag gates it), so the mutex is uncontended in steady state.
func (as *AddressSpace) addDirtyRegion(r *Region) {
	as.dirtyMu.Lock()
	as.dirtyRegs = append(as.dirtyRegs, r)
	as.dirtyMu.Unlock()
}

// DirtyPageCount returns the number of pages whose soft-dirty bit is set,
// maintained exactly by the set/clear transitions. O(1) — safe to call with
// the world stopped.
func (as *AddressSpace) DirtyPageCount() uint64 {
	if n := as.dirtyPages.Load(); n > 0 {
		return uint64(n)
	}
	return 0
}

// DirtyRegions overwrites dst with the regions dirtied since the last
// ClearSoftDirty and returns it, growing it as needed. The result is a
// snapshot: regions dirtied for the first time during a concurrent caller's
// iteration are missing from it (their pages stay flagged for the next
// pass), and listed regions may since have been cleaned or unmapped —
// readers re-check per-page state, which stays the source of truth.
func (as *AddressSpace) DirtyRegions(dst []*Region) []*Region {
	dst = dst[:0]
	as.dirtyMu.Lock()
	dst = append(dst, as.dirtyRegs...)
	as.dirtyMu.Unlock()
	return dst
}

// Regions returns the current region snapshot, sorted by base address. The
// returned slice must not be modified.
func (as *AddressSpace) Regions() []*Region { return as.regions() }

// RSS returns resident (committed) bytes.
func (as *AddressSpace) RSS() uint64 { return uint64(as.rss.Load()) }

// Stats returns an accounting snapshot.
func (as *AddressSpace) Stats() Stats {
	return Stats{
		RSS:     uint64(as.rss.Load()),
		Mapped:  uint64(as.mapped.Load()),
		Regions: len(as.regions()),
		Faults:  as.faults.Load(),
	}
}

// IsHeapAddr reports whether addr lies in the heap area — the sweeper's
// cheap "could this word be a heap pointer" filter.
func IsHeapAddr(addr uint64) bool { return addr >= HeapBase && addr < HeapLimit }
