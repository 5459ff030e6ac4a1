package jemalloc

// tcache is a per-thread cache of free regions, one stack per small class,
// mirroring jemalloc's tcache: most mallocs and frees touch only thread-local
// state, visiting the shared bin in batches.
//
// Each cached item carries the region's extent alongside its address. That
// pointer costs one word per slot and buys two things on the hot path:
// flushes (and thread teardown) free regions without re-resolving each
// address through the page map, and the double-free membership check becomes
// one atomic bit test on the extent's cachemap instead of a linear scan of
// the cache stack.
type tcache struct {
	bins []tbin

	// Refill and drain scratch, reused across smallSlow/flush calls so
	// neither cache fills nor overflow flushes allocate. Owned by the
	// cache's thread, like the bins.
	fillAddrs []uint64
	fillExts  []*Extent
	fillRegs  []int32
	drain     []tcitem
}

// tcitem is one cached free region. The region index rides along so cache
// hits and flushes never redo the division by region size.
type tcitem struct {
	addr uint64
	ext  *Extent
	reg  int32
}

// A bin's stack is allocated at its capacity by its first push, so a
// thread that never frees a class (a sweep worker's recycle thread frees
// through FreeBatch, which bypasses the tcache) costs no stack for it.
type tbin struct {
	items []tcitem
	max   int
}

// tcacheCap returns the cache capacity for a class: more slots for small
// objects, fewer for big ones (as in jemalloc).
func tcacheCap(class int) int {
	switch size := ClassSize(class); {
	case size <= 256:
		return 32
	case size <= 2048:
		return 16
	default:
		return 8
	}
}

func newTcache() *tcache {
	tc := &tcache{bins: make([]tbin, NumClasses())}
	for c := range tc.bins {
		tc.bins[c].max = tcacheCap(c)
	}
	return tc
}

// pop returns a cached region of the class, or 0 if the cache is empty. The
// region's tcache-residency bit is cleared: it is now allocated to the
// program.
func (tc *tcache) pop(class int) uint64 {
	tb := &tc.bins[class]
	if n := len(tb.items); n > 0 {
		it := tb.items[n-1]
		tb.items = tb.items[:n-1]
		it.ext.uncacheRegion(int(it.reg))
		return it.addr
	}
	return 0
}

// push caches a freed region of e, reporting whether the cache is now at
// capacity (the caller should flush). The region's residency bit is set
// before the item becomes poppable, so a concurrent double free of the same
// region cannot slip past the membership check.
func (tc *tcache) push(class int, addr uint64, e *Extent, reg int) bool {
	e.cacheRegion(reg)
	tb := &tc.bins[class]
	if tb.items == nil {
		tb.items = make([]tcitem, 0, tb.max)
	}
	tb.items = append(tb.items, tcitem{addr: addr, ext: e, reg: int32(reg)})
	return len(tb.items) >= tb.max
}

// drainHalf removes the oldest half of the class's cached items and returns
// them for flushing to the shared bin. Residency bits stay set until
// bin.freeRegion returns each region to its slab, so a racing double free is
// still detected while the flush is in flight.
// The returned slice is the cache's drain scratch: valid until the next
// drain call on this cache.
func (tc *tcache) drainHalf(class int) []tcitem {
	tb := &tc.bins[class]
	n := len(tb.items) / 2
	if n == 0 {
		n = len(tb.items)
	}
	tc.drain = append(tc.drain[:0], tb.items[:n]...)
	tb.items = append(tb.items[:0], tb.items[n:]...)
	return tc.drain
}

// drainAll removes and returns every cached item of the class. As with
// drainHalf, residency bits are cleared by bin.freeRegion, not here, and the
// returned slice is only valid until the next drain call.
func (tc *tcache) drainAll(class int) []tcitem {
	tb := &tc.bins[class]
	tc.drain = append(tc.drain[:0], tb.items...)
	tb.items = tb.items[:0]
	return tc.drain
}

// fillTarget returns how many regions a fill should request: half capacity,
// like jemalloc's fill count.
func (tc *tcache) fillTarget(class int) int { return tc.bins[class].max / 2 }
