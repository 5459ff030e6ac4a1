package jemalloc

import (
	"sync/atomic"

	"minesweeper/internal/mem"
)

// rtree is a lock-free two-level radix tree mapping heap page numbers to the
// extent owning the page — the analogue of jemalloc's rtree, replacing the
// seed's one-map-entry-per-page pageMap behind a global RWMutex. The heap
// area is a single contiguous VA range (mem.HeapBase..mem.HeapLimit), so a
// page's tree index is a constant-time subtract/shift and the root can be a
// fixed flat array:
//
//	addr -> page index (28 bits) -> [root: high 14 bits] -> [leaf: low 14 bits]
//
// Readers (Lookup on every free(), the sweeper's pointer validation) perform
// two atomic loads and never block. Writers install leaves with
// compare-and-swap and publish extent pointers with atomic stores; a reader
// racing a range insert/remove observes each page either before or after —
// the same guarantee the RWMutex gave, without serialising every free() in
// the process.
//
// Extents are never deleted once created (the arena retains their VA on its
// dirty lists forever), so a pointer read from the tree can never dangle:
// at worst it names an extent whose state has since changed, which every
// caller already re-checks under the owning bin's lock or via atomic
// freemap bits.
const (
	// rtreeLeafBits is log2 of the pages covered by one leaf: 2^14 pages =
	// 64 MiB of heap VA per 128 KiB leaf.
	rtreeLeafBits = 14
	rtreeLeafSize = 1 << rtreeLeafBits
	rtreeLeafMask = rtreeLeafSize - 1
	// rtreeRootSize covers the whole heap area: total heap pages / pages
	// per leaf. With a 1 TiB heap range this is 2^14 root slots (128 KiB).
	rtreeRootSize = int((mem.HeapLimit - mem.HeapBase) >> (mem.PageShift + rtreeLeafBits))
)

// rtreeLeaf maps the low rtreeLeafBits of a page index to its extent.
type rtreeLeaf struct {
	extents [rtreeLeafSize]atomic.Pointer[Extent]
}

// rtree is the page map. The zero value is not usable; call newRtree.
type rtree struct {
	root    []atomic.Pointer[rtreeLeaf] // fixed rtreeRootSize slots
	nleaves atomic.Int64
}

func newRtree() *rtree {
	return &rtree{root: make([]atomic.Pointer[rtreeLeaf], rtreeRootSize)}
}

// pageIndex returns addr's index into the page-number space, and whether addr
// lies in the heap area at all. Out-of-range addresses (the sweeper probes
// arbitrary word values) resolve to no extent without touching the tree.
func pageIndex(addr uint64) (uint64, bool) {
	if addr < mem.HeapBase || addr >= mem.HeapLimit {
		return 0, false
	}
	return (addr - mem.HeapBase) >> mem.PageShift, true
}

// leafFor returns the leaf covering page index idx, installing one with CAS
// when create is set. Returns nil when the leaf does not exist and create is
// false.
func (rt *rtree) leafFor(idx uint64, create bool) *rtreeLeaf {
	slot := &rt.root[idx>>rtreeLeafBits]
	leaf := slot.Load()
	if leaf == nil && create {
		fresh := new(rtreeLeaf)
		if slot.CompareAndSwap(nil, fresh) {
			rt.nleaves.Add(1)
			return fresh
		}
		leaf = slot.Load() // another writer won the race
	}
	return leaf
}

// insert registers every page of e. Multi-page extents are walked leaf by
// leaf so the root is consulted once per up-to-2^14-page run, not once per
// page.
func (rt *rtree) insert(e *Extent) {
	first, ok := pageIndex(e.base)
	if !ok {
		panic("jemalloc: extent outside heap area")
	}
	rt.setRange(first, uint64(e.pages()), e)
}

// remove deregisters every page of e.
func (rt *rtree) remove(e *Extent) {
	first, ok := pageIndex(e.base)
	if !ok {
		return
	}
	rt.setRange(first, uint64(e.pages()), nil)
}

// setRange points pages [first, first+n) at e (nil to clear).
func (rt *rtree) setRange(first, n uint64, e *Extent) {
	for n > 0 {
		leaf := rt.leafFor(first, e != nil)
		lo := first & rtreeLeafMask
		run := uint64(rtreeLeafSize) - lo
		if run > n {
			run = n
		}
		if leaf != nil {
			for i := lo; i < lo+run; i++ {
				leaf.extents[i].Store(e)
			}
		}
		first += run
		n -= run
	}
}

// lookup returns the extent owning addr's page, or nil. Two atomic loads,
// no locks — the free() fast path.
func (rt *rtree) lookup(addr uint64) *Extent {
	idx, ok := pageIndex(addr)
	if !ok {
		return nil
	}
	leaf := rt.root[idx>>rtreeLeafBits].Load()
	if leaf == nil {
		return nil
	}
	return leaf.extents[idx&rtreeLeafMask].Load()
}

// footprint returns the tree's exact metadata bytes: the root array plus one
// fixed-size block per installed leaf. Unlike the seed's map-based count this
// takes no lock and does not grow with live pages, only with address-space
// coverage.
func (rt *rtree) footprint() uint64 {
	const (
		rootBytes = uint64(rtreeRootSize) * 8
		leafBytes = uint64(rtreeLeafSize) * 8
	)
	return rootBytes + uint64(rt.nleaves.Load())*leafBytes
}
