package jemalloc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"minesweeper/internal/alloc"
	"minesweeper/internal/mem"
)

// Config controls the allocator's behaviour.
type Config struct {
	// Hooks manage physical memory for extents. Nil means DefaultHooks.
	Hooks ExtentHooks
	// TcacheEnabled enables per-thread caches.
	TcacheEnabled bool
	// Arenas is the number of arena/bin shards. Threads are spread over the
	// shards round-robin by thread ID, so tcache misses from different
	// threads hit different bin locks — jemalloc's multiple-arenas
	// analogue. Zero (the default) selects min(4, GOMAXPROCS).
	Arenas int
}

// DefaultConfig mirrors stock jemalloc behaviour: tcache on, automatic
// arena count.
func DefaultConfig() Config {
	return Config{
		Hooks:         DefaultHooks{},
		TcacheEnabled: true,
	}
}

// decayCycles is the virtual-time age after which dirty extents are purged on
// Tick: jemalloc's 10-second decay curve, expressed in virtual
// operation-count time at simulator scale.
const decayCycles = 100_000

// heapShard is one slice of the allocator's shared state: an arena (extent
// lifecycle, dirty lists) plus a full bin set. Each shard has its own locks;
// only the address space's page table and the heap-wide statistic counters
// are shared.
type heapShard struct {
	arena *arena
	bins  []bin
}

// Heap is a jemalloc-style allocator over a simulated address space. It
// implements alloc.Allocator and is the substrate both the baseline and
// MineSweeper run on.
type Heap struct {
	space  *mem.AddressSpace
	cfg    Config
	shards []heapShard

	tcMu     sync.Mutex
	tcaches  atomic.Pointer[[]*tcache]
	nthreads atomic.Int32

	// Hot-path statistics live in per-thread stripes (indexed by thread ID,
	// padded to a cache line) so every Malloc/Free is not a rendezvous on
	// one heap-global cache line. Each update lands wholly on one stripe,
	// so sums over stripes are exact — readers (AllocatedBytes, Stats) pay
	// the summation, which is off the per-operation path.
	ctrs      []counterStripe
	largeLive atomic.Int64 // live large usable bytes (slow path; unstriped)
	slabBytes atomic.Int64 // bytes in live slabs
}

// counterStripe holds one stripe of the hot-path counters. The trailing pad
// rounds the struct to a 128-byte cache-line pair so neighbouring stripes
// never false-share.
type counterStripe struct {
	allocated atomic.Int64 // live usable bytes
	mallocs   atomic.Uint64
	frees     atomic.Uint64
	_         [104]byte
}

var _ alloc.Substrate = (*Heap)(nil)

// New returns a Heap over space. The heap finds an address's extent through
// space's page table (each extent is the owner of its own mem.Region), so an
// address space hosts at most one jemalloc heap.
func New(space *mem.AddressSpace, cfg Config) *Heap {
	if cfg.Hooks == nil {
		cfg.Hooks = DefaultHooks{}
	}
	nshards := cfg.Arenas
	if nshards <= 0 {
		nshards = runtime.GOMAXPROCS(0)
		if nshards > 4 {
			nshards = 4
		}
	}
	nstripes := 1
	for nstripes < runtime.GOMAXPROCS(0) && nstripes < 8 {
		nstripes <<= 1
	}
	h := &Heap{
		space:  space,
		cfg:    cfg,
		shards: make([]heapShard, nshards),
		ctrs:   make([]counterStripe, nstripes),
	}
	for s := range h.shards {
		sh := &h.shards[s]
		sh.arena = newArena(space, cfg.Hooks, int32(s))
		sh.bins = make([]bin, NumClasses())
		for c := range sh.bins {
			sh.bins[c].class = c
			sh.bins[c].size = ClassSize(c)
			sh.bins[c].slabBytes = &h.slabBytes
		}
	}
	empty := make([]*tcache, 0)
	h.tcaches.Store(&empty)
	return h
}

// String returns the scheme name.
func (h *Heap) String() string { return "jemalloc" }

// Space returns the underlying address space.
func (h *Heap) Space() *mem.AddressSpace { return h.space }

// NumArenas returns the number of arena/bin shards.
func (h *Heap) NumArenas() int { return len(h.shards) }

// shardFor returns the shard serving a thread's slow paths: threads are
// spread round-robin, jemalloc's thread→arena assignment.
func (h *Heap) shardFor(tid alloc.ThreadID) *heapShard {
	return &h.shards[int(uint32(tid))%len(h.shards)]
}

// shardOf returns the shard owning an extent.
func (h *Heap) shardOf(e *Extent) *heapShard {
	return &h.shards[e.shard]
}

// ctr returns the statistics stripe for a thread (stripe count is a power of
// two, so this is one mask).
func (h *Heap) ctr(tid alloc.ThreadID) *counterStripe {
	return &h.ctrs[int(uint32(tid))&(len(h.ctrs)-1)]
}

// RegisterThread implements alloc.Allocator.
func (h *Heap) RegisterThread() alloc.ThreadID {
	h.tcMu.Lock()
	defer h.tcMu.Unlock()
	old := *h.tcaches.Load()
	nw := make([]*tcache, len(old)+1)
	copy(nw, old)
	nw[len(old)] = newTcache()
	h.tcaches.Store(&nw)
	h.nthreads.Add(1)
	return alloc.ThreadID(len(old))
}

// UnregisterThread flushes the thread's caches back to the shared bins and
// retires the cache: the slot is nilled out (copy-on-write, like
// RegisterThread) so a dead thread's cache does not pin its regions forever.
func (h *Heap) UnregisterThread(tid alloc.ThreadID) {
	tc := h.tcacheFor(tid)
	if tc == nil {
		return
	}
	for c := range tc.bins {
		h.flushItems(c, tc.drainAll(c))
	}
	h.tcMu.Lock()
	defer h.tcMu.Unlock()
	old := *h.tcaches.Load()
	if int(tid) < len(old) && old[tid] == tc {
		nw := make([]*tcache, len(old))
		copy(nw, old)
		nw[tid] = nil
		h.tcaches.Store(&nw)
		h.nthreads.Add(-1)
	}
}

func (h *Heap) tcacheFor(tid alloc.ThreadID) *tcache {
	if !h.cfg.TcacheEnabled {
		return nil
	}
	tcs := *h.tcaches.Load()
	if int(tid) < 0 || int(tid) >= len(tcs) {
		return nil
	}
	return tcs[tid]
}

// Malloc implements alloc.Allocator.
func (h *Heap) Malloc(tid alloc.ThreadID, size uint64) (uint64, error) {
	if size == 0 {
		size = 1
	}
	// Every request grows by one byte so that one-past-the-end pointers lie
	// within the same allocation: the paper's jemalloc modification for
	// C/C++ end() pointer compatibility.
	req := size + 1
	var addr uint64
	var usable uint64
	if IsSmall(req) {
		class := SizeToClass(req)
		usable = ClassSize(class)
		tc := h.tcacheFor(tid)
		if tc != nil {
			addr = tc.pop(class)
		}
		if addr == 0 {
			var err error
			addr, err = h.smallSlow(h.shardFor(tid), tc, class)
			if err != nil {
				return 0, err
			}
		}
	} else {
		pages := LargePages(req)
		e, err := h.shardFor(tid).arena.allocExtent(int(pages))
		if err != nil {
			return 0, fmt.Errorf("%w: %v", alloc.ErrOutOfMemory, err)
		}
		e.initLarge()
		addr = e.base
		usable = e.size
		h.largeLive.Add(int64(usable))
	}
	c := h.ctr(tid)
	c.allocated.Add(int64(usable))
	c.mallocs.Add(1)
	return addr, nil
}

// smallSlow refills the tcache from the shard's bin (or allocates one region
// when tcache is disabled).
func (h *Heap) smallSlow(sh *heapShard, tc *tcache, class int) (uint64, error) {
	b := &sh.bins[class]
	want := 1
	if tc != nil {
		want = tc.fillTarget(class)
		if want < 1 {
			want = 1
		}
	}
	var buf []uint64
	var exts []*Extent
	var regs []int32
	if tc != nil {
		if cap(tc.fillAddrs) < want {
			tc.fillAddrs = make([]uint64, want)
			tc.fillExts = make([]*Extent, want)
			tc.fillRegs = make([]int32, want)
		}
		buf, exts, regs = tc.fillAddrs[:want], tc.fillExts[:want], tc.fillRegs[:want]
	} else {
		buf = make([]uint64, want)
		exts = make([]*Extent, want)
		regs = make([]int32, want)
	}
	n, err := b.allocBatch(sh.arena, buf, exts, regs)
	if err != nil || n == 0 {
		return 0, fmt.Errorf("%w: %v", alloc.ErrOutOfMemory, err)
	}
	addr := buf[0]
	if tc != nil {
		for i, a := range buf[1:n] {
			tc.push(class, a, exts[1+i], int(regs[1+i]))
		}
	}
	return addr, nil
}

// extentOf returns the extent owning addr's page, or nil: the address
// space's page table finds the region, and the region's owner is the extent.
// Words outside the heap area, which the sweepers probe by the million, miss
// before the table walk. Lock-free. Its inline cost is over the compiler's
// budget, so the two hot callers, Lookup (every intercepted free and every
// pointer probe of the comparators) and FreeBatch (every released quarantine
// entry), carry these lines themselves; TestLookupEveryPage and
// TestLookupOutOfRange hold the copies to this one.
func (h *Heap) extentOf(addr uint64) *Extent {
	if !mem.IsHeapAddr(addr) {
		return nil
	}
	r := h.space.Lookup(addr)
	if r == nil {
		return nil
	}
	e, _ := r.Owner().(*Extent)
	return e
}

// Free implements alloc.Allocator.
func (h *Heap) Free(tid alloc.ThreadID, addr uint64) error {
	e := h.extentOf(addr)
	if e == nil {
		return fmt.Errorf("%w: %#x", alloc.ErrInvalidFree, addr)
	}
	if e.isSlab() {
		return h.freeSmall(tid, e, addr)
	}
	if !e.isLarge() || addr != e.base {
		return fmt.Errorf("%w: %#x", alloc.ErrInvalidFree, addr)
	}
	usable := e.size
	h.shardOf(e).arena.freeExtent(e)
	h.largeLive.Add(-int64(usable))
	c := h.ctr(tid)
	c.allocated.Add(-int64(usable))
	c.frees.Add(1)
	return nil
}

func (h *Heap) freeSmall(tid alloc.ThreadID, e *Extent, addr uint64) error {
	idx := e.regionIndex(addr)
	if e.regionBase(idx) != addr {
		return fmt.Errorf("%w: %#x is interior", alloc.ErrInvalidFree, addr)
	}
	class := int(e.class.Load())
	usable := ClassSize(class)
	tc := h.tcacheFor(tid)
	if tc != nil {
		// O(1) double-free checks: one atomic bit test against every
		// thread's cache (the extent's cachemap), one against the slab
		// freemap.
		if e.regionCached(idx) {
			return fmt.Errorf("%w: %#x", alloc.ErrDoubleFree, addr)
		}
		if e.regionFree(idx) {
			return fmt.Errorf("%w: %#x", alloc.ErrDoubleFree, addr)
		}
		if full := tc.push(class, addr, e, idx); full {
			h.flushItems(class, tc.drainHalf(class))
		}
	} else {
		sh := h.shardOf(e)
		if err := sh.bins[class].freeRegion(sh.arena, e, idx); err != nil {
			return err
		}
	}
	c := h.ctr(tid)
	c.allocated.Add(-int64(usable))
	c.frees.Add(1)
	return nil
}

// flushItems returns drained tcache items of one class to their owning bins.
// The cached items carry their extents, so no page-map lookups are needed;
// items are grouped into runs of the same shard so a flush costs one bin-lock
// acquisition per run, not per item. (A thread mostly frees what it
// allocated, so the common case is a single run.)
func (h *Heap) flushItems(class int, items []tcitem) {
	for i := 0; i < len(items); {
		s := items[i].ext.shard
		j := i + 1
		for j < len(items) && items[j].ext.shard == s {
			j++
		}
		sh := &h.shards[s]
		sh.bins[class].freeItems(sh.arena, items[i:j], nil, true)
		i = j
	}
}

// batchScratch is FreeBatch's reusable working memory. The sweep release
// path calls FreeBatch once per few-hundred-entry batch, thousands of times
// per sweep; allocating the grouping buffers per call made the batched path
// SLOWER than per-item frees purely through GC pressure (measured on
// BenchmarkSweepRelease), so they are pooled.
type batchScratch struct {
	exts     []*Extent
	keys     []int32
	order    []int32
	counts   []int32
	items    []tcitem
	itemIdx  []int32
	itemErrs []error
	release  []*Extent
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// grab sizes the scratch for a batch of n items over nkeys grouping keys.
func (sc *batchScratch) grab(n, nkeys int) {
	if cap(sc.exts) < n {
		sc.exts = make([]*Extent, n)
		sc.keys = make([]int32, n)
		sc.order = make([]int32, n)
	}
	if cap(sc.counts) < nkeys {
		sc.counts = make([]int32, nkeys)
	}
	clear(sc.counts[:nkeys])
}

// put clears the pointer-bearing slices — to capacity, since truncation
// leaves extent pointers alive in the backing arrays and the pool must not
// pin extents across GC cycles — and returns the scratch.
func (sc *batchScratch) put() {
	clear(sc.exts)
	clear(sc.items[:cap(sc.items)])
	clear(sc.itemErrs)
	clear(sc.release[:cap(sc.release)])
	sc.release = sc.release[:0]
	batchScratchPool.Put(sc)
}

// FreeBatch implements alloc.Substrate: free a batch of allocations by
// address, each found through the page table, grouping the batch by owning
// shard and size class so all regions of one class are freed under a single
// bin-lock acquisition (and all emptied slabs and large extents return to
// each arena under a single arena-lock acquisition). errs[i] records each
// item's verdict, what Free would have returned, preserving per-item
// double-free detection for the caller's accounting. This is the sweep
// release path: per-item lock round-trips were the dominant cost of
// recycling a large quarantine generation.
func (h *Heap) FreeBatch(tid alloc.ThreadID, addrs []uint64, errs []error) {
	n := len(addrs)
	nclasses := NumClasses()
	// One key per (shard, class) pair plus one large-extent key per shard.
	nkeys := len(h.shards) * (nclasses + 1)
	sc := batchScratchPool.Get().(*batchScratch)
	sc.grab(n, nkeys)
	exts, keys, counts := sc.exts[:n], sc.keys[:n], sc.counts[:nkeys]
	valid := 0
	for i, addr := range addrs {
		var e *Extent // extentOf, written in
		if mem.IsHeapAddr(addr) {
			if r := h.space.Lookup(addr); r != nil {
				e, _ = r.Owner().(*Extent)
			}
		}
		if e == nil {
			errs[i] = fmt.Errorf("%w: %#x", alloc.ErrInvalidFree, addr)
			exts[i], keys[i] = nil, -1
			continue
		}
		exts[i] = e
		var k int32
		if e.isSlab() {
			k = e.shard*int32(nclasses) + e.class.Load()
		} else {
			k = int32(len(h.shards)*nclasses) + e.shard
		}
		keys[i] = k
		counts[k]++
		errs[i] = nil
		valid++
	}
	// Group by key with a counting sort — stable by construction, so
	// duplicate frees of the same region keep their program order and the
	// verdicts match a per-item replay.
	order := sc.order[:valid]
	pos := int32(0)
	for k := range counts {
		c := counts[k]
		counts[k] = pos
		pos += c
	}
	for i := 0; i < n; i++ {
		if k := keys[i]; k >= 0 {
			order[counts[k]] = int32(i)
			counts[k]++
		}
	}

	freedBytes := int64(0)
	largeBytes := int64(0)
	freedCount := uint64(0)
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && keys[order[hi]] == keys[order[lo]] {
			hi++
		}
		first := exts[order[lo]]
		if first.isSlab() {
			class := int(first.class.Load())
			items, itemIdx := sc.items[:0], sc.itemIdx[:0]
			for _, i := range order[lo:hi] {
				e := exts[i]
				idx := e.regionIndex(addrs[i])
				if e.regionBase(idx) != addrs[i] {
					errs[i] = fmt.Errorf("%w: %#x is interior", alloc.ErrInvalidFree, addrs[i])
					continue
				}
				items = append(items, tcitem{addr: addrs[i], ext: e, reg: int32(idx)})
				itemIdx = append(itemIdx, int32(i))
			}
			sc.items, sc.itemIdx = items, itemIdx
			if cap(sc.itemErrs) < len(items) {
				sc.itemErrs = make([]error, len(items))
			}
			itemErrs := sc.itemErrs[:len(items)]
			sh := h.shardOf(first)
			freed := sh.bins[class].freeItems(sh.arena, items, itemErrs, false)
			for k, i := range itemIdx {
				if err := itemErrs[k]; err != nil {
					errs[i] = fmt.Errorf("%w: %#x", err, addrs[i])
				}
			}
			freedBytes += int64(freed) * int64(ClassSize(class))
			freedCount += uint64(freed)
		} else {
			release := sc.release[:0]
			for _, i := range order[lo:hi] {
				e := exts[i]
				// The CAS claims the extent exactly once: a duplicate
				// free of the same large allocation inside one batch
				// loses the race and reports invalid, as a per-item
				// replay would.
				if addrs[i] != e.base || !e.state.CompareAndSwap(extStateLarge, extStateFree) {
					errs[i] = fmt.Errorf("%w: %#x", alloc.ErrInvalidFree, addrs[i])
					continue
				}
				release = append(release, e)
				freedBytes += int64(e.size)
				largeBytes += int64(e.size)
				freedCount++
			}
			sc.release = release
			h.shardOf(first).arena.freeExtents(release)
		}
		lo = hi
	}
	sc.put()
	if freedCount > 0 {
		c := h.ctr(tid)
		c.allocated.Add(-freedBytes)
		if largeBytes != 0 {
			h.largeLive.Add(-largeBytes)
		}
		c.frees.Add(freedCount)
	}
}

// UsableSize implements alloc.Allocator.
func (h *Heap) UsableSize(addr uint64) uint64 {
	a, ok := h.Lookup(addr)
	if !ok || a.Base != addr {
		return 0
	}
	return a.Size
}

// Lookup returns the live allocation containing addr. It underpins
// MineSweeper's free-interception layer: the quarantine validates and sizes
// incoming frees through it.
func (h *Heap) Lookup(addr uint64) (alloc.Allocation, bool) {
	if !mem.IsHeapAddr(addr) { // extentOf, written in
		return alloc.Allocation{}, false
	}
	r := h.space.Lookup(addr)
	if r == nil {
		return alloc.Allocation{}, false
	}
	e, _ := r.Owner().(*Extent)
	if e == nil {
		return alloc.Allocation{}, false
	}
	if e.isSlab() {
		idx := e.regionIndex(addr)
		if e.regionFree(idx) {
			return alloc.Allocation{}, false
		}
		return alloc.Allocation{Base: e.regionBase(idx), Size: e.regSize.Load()}, true
	}
	if !e.isLarge() {
		return alloc.Allocation{}, false
	}
	return alloc.Allocation{Base: e.base, Size: e.size, Large: true}, true
}

// DecommitExtent releases the physical pages of a live large allocation via
// the extent hooks, leaving the allocation itself live. MineSweeper uses it
// to unmap large quarantined allocations (§4.2); the extent is recommitted by
// the hooks when the arena eventually reuses it.
func (h *Heap) DecommitExtent(base uint64) error {
	e := h.extentOf(base)
	if e == nil || !e.isLarge() || e.base != base {
		return fmt.Errorf("%w: %#x is not a live large allocation", alloc.ErrInvalidFree, base)
	}
	a := h.shardOf(e).arena
	a.mu.Lock()
	defer a.mu.Unlock()
	if !e.committed {
		return nil
	}
	if err := h.cfg.Hooks.Decommit(h.space, e.base, e.size); err != nil {
		return err
	}
	e.committed = false
	return nil
}

// Tick implements alloc.Allocator (decay purging, every shard).
func (h *Heap) Tick(now uint64) {
	for s := range h.shards {
		h.shards[s].arena.Tick(now)
	}
}

// PurgeAll decommits all dirty extents now. MineSweeper calls this from the
// sweeper thread after each sweep (§4.5).
func (h *Heap) PurgeAll() {
	for s := range h.shards {
		h.shards[s].arena.PurgeAll()
	}
}

// AllocatedBytes returns live usable bytes (the quarantine threshold's
// denominator component), summed over the counter stripes.
func (h *Heap) AllocatedBytes() uint64 {
	var v int64
	for i := range h.ctrs {
		v += h.ctrs[i].allocated.Load()
	}
	return uint64(v)
}

// arenaStats sums the arenas' extent accounting over the shards.
func (h *Heap) arenaStats() arenaStats {
	var sum arenaStats
	for s := range h.shards {
		st := h.shards[s].arena.stats()
		sum.dirtyBytes += st.dirtyBytes
		sum.dirtyExtents += st.dirtyExtents
		sum.extents += st.extents
		sum.pages += st.pages
	}
	return sum
}

// Stats implements alloc.Allocator. Each counter update lands wholly on one
// stripe and the per-stripe/per-shard figures are summed, so the snapshot
// stays exact under striping and sharding.
func (h *Heap) Stats() alloc.Stats {
	ast := h.arenaStats()
	var purges uint64
	for s := range h.shards {
		purges += h.shards[s].arena.purges.Load()
	}
	var mallocs, frees uint64
	for i := range h.ctrs {
		mallocs += h.ctrs[i].mallocs.Load()
		frees += h.ctrs[i].frees.Load()
	}
	// The page map is charged at what jemalloc's dense radix-tree leaves would
	// cost, 8 B per page of every extent mapped, plus 128 B per dirty
	// extent descriptor.
	return alloc.Stats{
		Allocated:  h.AllocatedBytes(),
		Active:     uint64(h.slabBytes.Load() + h.largeLive.Load()),
		DirtyBytes: ast.dirtyBytes,
		MetaBytes:  uint64(ast.pages)*8 + uint64(ast.dirtyExtents)*128,
		Mallocs:    mallocs,
		Frees:      frees,
		Purges:     purges,
	}
}

// Shutdown implements alloc.Allocator. The baseline has no background
// machinery.
func (h *Heap) Shutdown() {}
