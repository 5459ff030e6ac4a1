package mem

import (
	"runtime"
	"sync/atomic"
)

// Per-page state bits, packed into an atomic uint32 per page.
const (
	pageResident uint32 = 1 << 0 // physical backing is committed
	pageRead     uint32 = 1 << 1 // loads permitted
	pageWrite    uint32 = 1 << 2 // stores permitted
	pageDirty    uint32 = 1 << 3 // soft-dirty: written since last ClearSoftDirty
	pageBusy     uint32 = 1 << 4 // page lock: bulk zeroing or scanning in progress
	// pageKnownZero records that every word of the page was zero the last
	// time a bulk zeroing completed and no store has completed since: the
	// page is zero by construction. Set by full-page zeroRange, fresh
	// committed mappings and backing drops; cleared by the same post-store
	// CAS that sets the dirty bit, so dirty and known-zero are never set
	// together. The sweeper skips known-zero pages without reading a word,
	// and zeroRange skips re-zeroing them.
	pageKnownZero uint32 = 1 << 5
	// pagePtrFree records that the sweep's last full-pass read of the page
	// found no word in [HeapBase, HeapLimit) and no store has completed
	// since: the page holds no pointer. Set by ScanPageWordsPtrFree under
	// the page lock before it reads the words and withdrawn after if the
	// read found a heap-range word; cleared together with known-zero by the
	// post-store CAS, and dropped by commit and decommit. The full pass
	// skips flagged pages as it skips known-zero ones. Alias pages never
	// carry it: a store through the parent would not retire the alias's bit.
	pagePtrFree uint32 = 1 << 6
)

func protBits(p Prot) uint32 {
	var b uint32
	if p&ProtRead != 0 {
		b |= pageRead
	}
	if p&ProtWrite != 0 {
		b |= pageWrite
	}
	return b
}

// Region is a contiguous mapping in the simulated address space, the analogue
// of one mmap'd range. Allocators map one region per extent or pool; mutator
// stacks and the globals segment are regions too.
//
// Word data is stored in a []uint64 and accessed atomically, so a concurrent
// sweeper reading every word of the region is race-free with respect to
// mutator stores — the simulated counterpart of the paper's concurrent sweep
// of live process memory.
type Region struct {
	space *AddressSpace
	base  uint64
	size  uint64 // bytes; always page-aligned
	kind  Kind

	// words is the physical backing (len == size/WordSize). It is dropped
	// when every page of the region is decommitted — the simulated
	// equivalent of the OS actually releasing physical frames — so that
	// unmapped quarantined extents and purged dirty extents cost no host
	// memory, just as they cost no physical memory in the real system.
	// Accessors load the pointer once; a stale slice held across a
	// concurrent drop reads the old (zeroed) frames, like a TLB straggler.
	words    atomic.Pointer[[]uint64]
	resident atomic.Int32    // number of resident pages
	pages    []atomic.Uint32 // per-page state bits

	// dirtySum is a conservative one-bit-per-page summary of the soft-dirty
	// state (bit i%64 of word i/64 covers page i). store() sets a page's
	// summary bit right after its dirty bit, so a set dirty bit always has a
	// set summary bit once the writer's operation completes; the reverse does
	// not hold — bulk state rewrites (commit, decommit, protect) and
	// TestClearPageDirty leave stale summary bits behind, which readers
	// tolerate by re-checking the per-page bit. The summary is what lets the
	// pipelined sweep's dirty passes and page counts run in O(pages/64) +
	// O(dirty) instead of walking every page's state word — the stop-the-world
	// re-scan must scale with the mutators' write rate, not heap size.
	dirtySum []atomic.Uint64

	// zeroSum is a one-bit-per-page hint mirroring dirtySum's geometry for
	// the sweep's skip state, known-zero or pointer-free (bit i%64 of word
	// i/64 covers page i). Unlike dirtySum it is a pure hint in BOTH
	// directions: a set bit means the page MAY be skippable (re-check
	// PageKnownZero and PagePtrFree, the truth), a clear bit means a skip
	// is probably not
	// available — scanning a page whose stale-clear hint hid its skip bit
	// is merely slower, never wrong. Zeroers and the flagging scan set the
	// page bit before the summary bit; the store() CAS winner that clears a
	// page's known-zero or pointer-free bit clears its summary bit after, so
	// hints track the truth closely without any ordering obligation on
	// readers. The summary is what lets the sweeper probe 64 pages' skip
	// eligibility with one load before touching any page state word.
	zeroSum []atomic.Uint64

	// dirtyListed records that the region is on the space's dirtied-region
	// list for the current soft-dirty window, so the first store to dirty a
	// region lists it exactly once. Cleared (before the summary and page
	// bits) by clearSoftDirty when the window closes.
	dirtyListed atomic.Bool

	// Aliases: an alias region exposes a window of another region's
	// physical backing under its own virtual addresses and protections —
	// the mremap-style virtual aliasing Oscar builds on (paper §6.3).
	// Aliases contribute no RSS of their own; the parent's frames are the
	// physical memory.
	parent    *Region
	parentOff uint64 // byte offset of the alias window within parent
}

// IsAlias reports whether the region is a virtual alias of another region's
// physical memory.
func (r *Region) IsAlias() bool { return r.parent != nil }

// Parent returns the aliased region (nil for ordinary regions).
func (r *Region) Parent() *Region { return r.parent }

// Base returns the region's first virtual address.
func (r *Region) Base() uint64 { return r.base }

// Size returns the region's length in bytes.
func (r *Region) Size() uint64 { return r.size }

// End returns one past the region's last byte.
func (r *Region) End() uint64 { return r.base + r.size }

// Kind returns what the region is used for.
func (r *Region) Kind() Kind { return r.kind }

// PageCount returns the number of pages in the region.
func (r *Region) PageCount() int { return len(r.pages) }

// Contains reports whether addr lies inside the region.
func (r *Region) Contains(addr uint64) bool { return addr >= r.base && addr < r.base+r.size }

// pageIndexOf returns the index of the page containing addr, which must lie
// within the region.
func (r *Region) pageIndexOf(addr uint64) int { return int((addr - r.base) >> PageShift) }

// PageIndex returns the index of the page containing addr, which must lie
// within the region.
func (r *Region) PageIndex(addr uint64) int { return r.pageIndexOf(addr) }

// PageResident reports whether page i has committed physical backing.
func (r *Region) PageResident(i int) bool { return r.pages[i].Load()&pageResident != 0 }

// PageReadable reports whether page i is resident and permits loads. This is
// the sweeper's filter: only readable resident pages are swept.
func (r *Region) PageReadable(i int) bool {
	s := r.pages[i].Load()
	return s&(pageResident|pageRead) == pageResident|pageRead
}

// PageDirty reports whether page i has been written since the last
// ClearSoftDirty, the analogue of the Linux soft-dirty PTE bit the paper uses
// for its mostly-concurrent mode.
func (r *Region) PageDirty(i int) bool { return r.pages[i].Load()&pageDirty != 0 }

// PageAddr returns the virtual address of page i.
func (r *Region) PageAddr(i int) uint64 { return r.base + uint64(i)<<PageShift }

// WordCount returns the number of 64-bit words in the region.
func (r *Region) WordCount() int { return int(r.size / WordSize) }

// wordSlice returns the current backing, or nil when fully decommitted.
// Aliases resolve through their parent's backing.
func (r *Region) wordSlice() []uint64 {
	if r.parent != nil {
		w := r.parent.wordSlice()
		if w == nil {
			return nil
		}
		off := r.parentOff / WordSize
		return w[off : off+r.size/WordSize]
	}
	p := r.words.Load()
	if p == nil {
		return nil
	}
	return *p
}

// ensureBacking installs zeroed backing if none is present, returning the
// current backing. Aliases never own backing; they borrow the parent's.
func (r *Region) ensureBacking() []uint64 {
	if r.parent != nil {
		return r.wordSlice()
	}
	if w := r.wordSlice(); w != nil {
		return w
	}
	fresh := r.space.getBacking(int(r.size / WordSize))
	if r.words.CompareAndSwap(nil, &fresh) {
		return fresh
	}
	r.space.putBacking(fresh)
	return r.wordSlice()
}

// WordAt atomically loads word index i without access checks. It is the
// sweeper's read primitive; callers must have checked PageReadable for the
// containing page.
func (r *Region) WordAt(i int) uint64 {
	w := r.wordSlice()
	if w == nil {
		return 0
	}
	return atomic.LoadUint64(&w[i])
}

// Load64 performs a checked, atomic load of the word at addr, which must lie
// within the region. It is the fast path for callers (mutator threads) that
// cache the region of their last access.
func (r *Region) Load64(addr uint64) (uint64, error) {
	v, err := r.load(addr)
	if err != nil {
		r.space.faults.Add(1)
	}
	return v, err
}

// Store64 performs a checked, atomic store at addr, which must lie within
// the region; the region-cache counterpart of AddressSpace.Store64.
func (r *Region) Store64(addr, v uint64) error {
	err := r.store(addr, v)
	if err != nil {
		r.space.faults.Add(1)
	}
	return err
}

// load atomically loads the word at addr after checking protections.
func (r *Region) load(addr uint64) (uint64, error) {
	if !WordAligned(addr) {
		return 0, &Fault{Addr: addr, Cause: CauseMisaligned}
	}
	s := r.pages[r.pageIndexOf(addr)].Load()
	if s&pageResident == 0 {
		return 0, &Fault{Addr: addr, Cause: CauseNotResident}
	}
	if s&pageRead == 0 {
		return 0, &Fault{Addr: addr, Cause: CauseProtection}
	}
	w := r.wordSlice()
	if w == nil {
		return 0, &Fault{Addr: addr, Cause: CauseNotResident}
	}
	return atomic.LoadUint64(&w[(addr-r.base)>>3]), nil
}

// store atomically stores v at addr after checking protections, setting the
// page's soft-dirty bit.
//
// Ordering contract (the concurrent sweeper depends on it): the dirty bit is
// set AFTER the word store. A sweeper that clears the bit (clearSoftDirty,
// TestClearPageDirty) and then scans the page is guaranteed to observe every
// store whose dirty-set it consumed: for a store to be missed, the writer's
// Or(dirty) would have to precede the sweeper's clear while the word store
// followed the sweeper's scan — impossible, since the store precedes the Or
// in the writer's program order (both are sequentially consistent atomics).
// Setting the bit first (as this code originally did) loses exactly that
// interleaving: Or < Clear < Scan < Store leaves the page clean with an
// unscanned word. TestDirtySetVsClearOrdering holds this contract under
// -race.
//
// The dirty check must use the page state as of AFTER the word store, not the
// protection-check load from before it: a cleaner may consume the dirty bit
// between that stale load and the store, and skipping the set on stale
// evidence would leave this store both unflagged and unscanned. Re-loading
// closes the window: either the fresh load still sees the bit set — then the
// next consumer's clear-then-scan happens after this store and observes it —
// or it sees the bit clear and this writer re-flags the page (and its summary
// word) itself.
func (r *Region) store(addr, v uint64) error {
	if !WordAligned(addr) {
		return &Fault{Addr: addr, Write: true, Cause: CauseMisaligned}
	}
	pi := r.pageIndexOf(addr)
	s := r.pages[pi].Load()
	if s&pageResident == 0 {
		return &Fault{Addr: addr, Write: true, Cause: CauseNotResident}
	}
	if s&pageWrite == 0 {
		return &Fault{Addr: addr, Write: true, Cause: CauseProtection}
	}
	w := r.wordSlice()
	if w == nil {
		return &Fault{Addr: addr, Write: true, Cause: CauseNotResident}
	}
	atomic.StoreUint64(&w[(addr-r.base)>>3], v)
	for {
		old := r.pages[pi].Load()
		if old&(pageDirty|pageKnownZero|pagePtrFree) == pageDirty {
			// Already flagged, neither known-zero nor pointer-free: whoever
			// clears the dirty bit scans the page after the clear, and the
			// clear comes after this load, which comes after our word
			// store — so the scan observes it.
			break
		}
		if r.pages[pi].CompareAndSwap(old, (old|pageDirty)&^(pageKnownZero|pagePtrFree)) {
			// Exactly one writer wins the clean→dirty transition (CAS, not
			// Or), keeping the space's dirty-page count exact. The summary
			// bit and the region listing follow the page bit, so a consumer
			// that took them sees the page bit set (or the page was already
			// consumed by an earlier pass that scanned our store).
			//
			// The same CAS retires the page's known-zero bit: it happens
			// after the word store, so a sweeper that observed the bit set
			// and skipped the page behaved exactly as if it had scanned the
			// page just before this store landed — and the dirty bit set
			// here hands the page to the stop-the-world re-scan, which
			// never consults the known-zero map. The pointer-free bit
			// retires on the same terms; ScanPageWordsPtrFree shows why a
			// scan's bit cannot outlive a store the scan did not see.
			if old&pageDirty == 0 {
				r.space.dirtyPages.Add(1)
				r.dirtySum[pi>>6].Or(1 << uint(pi&63))
				if !r.dirtyListed.Load() && r.dirtyListed.CompareAndSwap(false, true) {
					r.space.addDirtyRegion(r)
				}
			}
			if old&(pageKnownZero|pagePtrFree) != 0 {
				r.zeroSum[pi>>6].And(^(uint64(1) << uint(pi&63)))
			}
			break
		}
	}
	if r.parent != nil {
		// An alias store lands in the parent's physical frames: the
		// parent's known-zero and pointer-free claims for that page no
		// longer hold. The alias's own page bits never carry either, so
		// only the parent needs invalidating.
		r.parent.clearSkipPage(int((r.parentOff + (addr - r.base)) >> PageShift))
	}
	return nil
}

// clearSkipPage retires page i's known-zero and pointer-free bits (and their
// shared summary hint) if set. The CAS keeps the dirty-transition accounting
// untouched.
func (r *Region) clearSkipPage(i int) {
	for {
		old := r.pages[i].Load()
		if old&(pageKnownZero|pagePtrFree) == 0 {
			return
		}
		if r.pages[i].CompareAndSwap(old, old&^(pageKnownZero|pagePtrFree)) {
			r.zeroSum[i>>6].And(^(uint64(1) << uint(i&63)))
			return
		}
	}
}

// markKnownZero publishes page i as known-zero after a completed full-page
// zeroing. It must only be attempted from a state with the dirty bit clear:
// a concurrent writer's post-store CAS sets dirty and clears known-zero
// together, so refusing to set the bit over a dirty state (and letting a
// racing dirty-set simply abandon the attempt) guarantees a page is never
// simultaneously known-zero and holding an unscanned store. See zeroRange
// for the full ordering argument.
func (r *Region) markKnownZero(i int) {
	for {
		old := r.pages[i].Load()
		if old&(pageDirty|pageKnownZero) != 0 {
			return
		}
		if r.pages[i].CompareAndSwap(old, old|pageKnownZero) {
			r.zeroSum[i>>6].Or(1 << uint(i&63))
			return
		}
	}
}

// LockPage acquires page i's busy bit. It orders bulk plain-memory
// operations (zeroing) against bulk readers (sweeps, marking): both sides
// hold the lock for their page-granular critical section, so zeroing can run
// at memset speed with plain stores while remaining race-free with scanners.
// Mutator word accesses stay lock-free: they are per-word atomic, which is
// race-free against the scanners' atomic reads, and a correct program never
// touches memory that is being zeroed (it was freed).
func (r *Region) LockPage(i int) { r.lockPage(i, 0) }

// UnlockPage releases page i's busy bit.
func (r *Region) UnlockPage(i int) { r.unlockPage(i, 0) }

// lockPage acquires page i's busy bit, setting the bits in set with the
// same CAS.
func (r *Region) lockPage(i int, set uint32) {
	spins := 0
	for {
		old := r.pages[i].Load()
		if old&pageBusy == 0 && r.pages[i].CompareAndSwap(old, old|pageBusy|set) {
			return
		}
		spins++
		if spins%64 == 0 {
			runtime.Gosched()
		}
	}
}

// unlockPage releases page i's busy bit, clearing the bits in clr with the
// same CAS, and returns the state it replaced.
func (r *Region) unlockPage(i int, clr uint32) uint32 {
	for {
		old := r.pages[i].Load()
		if r.pages[i].CompareAndSwap(old, old&^(pageBusy|clr)) {
			return old
		}
	}
}

// zeroRange zeroes [addr, addr+n) without protection checks. It is used by
// the allocator layers (zero-on-free, commit/decommit fill) which operate on
// memory they own regardless of current protections. addr and n must be
// word-aligned. Each page segment is cleared with plain stores under the
// page lock (see LockPage) — the simulated memset.
//
// The known-zero map is both consumed and produced here. A segment on a
// known-zero page is skipped outright: the bit certifies every completed
// store preceding this call was itself overwritten by a later full-page
// zeroing, so the words are already zero (an in-flight racing store would
// have to target memory being zeroed — freed memory — which the LockPage
// contract already excludes). A segment covering its whole page publishes
// the bit on completion, in three ordered steps under the page lock: consume
// the dirty bit first (with exact transition accounting — zeroing the page
// discharges the scan obligation the bit carried, since any store it
// flagged is wiped by the clear below and a re-scan would only read zeros),
// then clear the words, then set known-zero ONLY from a still-clean state.
// A writer racing the last step either lands its dirty CAS first — the set
// is abandoned and the page stays a normal dirty page — or lands it after,
// clearing the bit again; no interleaving leaves known-zero set over an
// unscanned store. Partial-page segments publish nothing: the rest of the
// page is not proven zero.
func (r *Region) zeroRange(addr, n uint64) {
	for n > 0 {
		pi := r.pageIndexOf(addr)
		segEnd := r.PageAddr(pi) + PageSize
		if segEnd > addr+n {
			segEnd = addr + n
		}
		if r.pages[pi].Load()&pageKnownZero != 0 {
			r.space.zeroElided.Add(segEnd - addr)
			n -= segEnd - addr
			addr = segEnd
			continue
		}
		ws := (addr - r.base) >> 3
		we := (segEnd - r.base) >> 3
		full := addr == r.PageAddr(pi) && segEnd == r.PageAddr(pi)+PageSize
		r.LockPage(pi)
		if full {
			for {
				old := r.pages[pi].Load()
				if old&pageDirty == 0 {
					break
				}
				if r.pages[pi].CompareAndSwap(old, old&^pageDirty) {
					r.space.dirtyPages.Add(-1)
					break
				}
			}
		}
		if w := r.wordSlice(); w != nil {
			clear(w[ws:we])
		}
		if full && r.parent == nil {
			r.markKnownZero(pi)
		}
		r.UnlockPage(pi)
		n -= segEnd - addr
		addr = segEnd
	}
}

// ScanPageWords invokes fn with page p's backing words while holding the
// page lock, returning whether the page was readable. It is the sweeper's
// bulk-read primitive: one lock acquisition and one backing lookup cover the
// whole page, so the inner loop iterates a plain []uint64 instead of paying
// WordAt's pointer chase per word. fn must load words with
// sync/atomic.LoadUint64 (mutator stores are per-word atomic and do not take
// the page lock) and must not retain the slice past its return. If the
// backing was dropped by a concurrent decommit, fn receives an empty slice —
// the page reads as all zeros, exactly as WordAt would report it.
func (r *Region) ScanPageWords(p int, fn func(words []uint64)) bool {
	if !r.PageReadable(p) {
		return false
	}
	r.LockPage(p)
	var ws []uint64
	if w := r.wordSlice(); w != nil {
		ws = w[p*WordsPerPage : (p+1)*WordsPerPage]
	}
	fn(ws)
	r.UnlockPage(p)
	return true
}

// ScanPageWordsPtrFree is ScanPageWords for the sweep's full pass: fn
// returns how many heap-range words it saw, and the page's pointer-free bit
// records a zero count until the next store. The order is the safety
// argument. The scan sets the bit with the page-lock CAS (T1), reads the
// words (T2), then withdraws the bit with the unlock CAS if fn saw a
// heap-range word (T3). A writer stores its word (S1), then runs the
// post-store CAS that clears the bit (S2). If S1 precedes T2's read of that
// word, the read sees it and T3 withdraws the bit; otherwise S2 follows T1
// and clears it. A bit that survives therefore certifies that every store to
// the page was seen by a read that found no pointer. Alias pages are read
// but never flagged. The summary hint is set after the page bit.
func (r *Region) ScanPageWordsPtrFree(p int, fn func(words []uint64) (hits int)) bool {
	if !r.PageReadable(p) {
		return false
	}
	flag := pagePtrFree
	if r.parent != nil {
		flag = 0
	}
	r.lockPage(p, flag)
	var ws []uint64
	if w := r.wordSlice(); w != nil {
		ws = w[p*WordsPerPage : (p+1)*WordsPerPage]
	}
	clr := uint32(0)
	if fn(ws) != 0 {
		clr = pagePtrFree
	}
	if old := r.unlockPage(p, clr); clr == 0 && old&pagePtrFree != 0 {
		r.zeroSum[p>>6].Or(1 << uint(p&63))
	}
	return true
}

// ScanRange calls fn for every word of [addr, addr+n) that lies on a
// readable resident page, taking the page lock per page segment. It is the
// safe bulk-read primitive for markers that walk object contents (MarkUs).
func (r *Region) ScanRange(addr, n uint64, fn func(v uint64)) {
	for n > 0 {
		pi := r.pageIndexOf(addr)
		segEnd := r.PageAddr(pi) + PageSize
		if segEnd > addr+n {
			segEnd = addr + n
		}
		if r.PageReadable(pi) {
			ws := (addr - r.base) >> 3
			we := (segEnd - r.base) >> 3
			r.LockPage(pi)
			if w := r.wordSlice(); w != nil {
				for i := ws; i < we; i++ {
					fn(atomic.LoadUint64(&w[i]))
				}
			}
			r.UnlockPage(pi)
		}
		n -= segEnd - addr
		addr = segEnd
	}
}

// commit marks pages [addr, addr+n) resident with protection prot, zeroing
// their contents (fresh pages from the OS are zero-filled). Returns the
// number of pages that transitioned from non-resident to resident.
//
// The known-zero bit survives the state rewrite: a page that was known-zero
// while non-resident (its words untouched since nothing writes non-resident
// pages, or its backing dropped and replaced by a zeroed one) is still zero
// after commit, so the zero-fill for newly resident known-zero pages is
// elided — this is where the purge path stops paying to re-zero memory the
// decommit already discarded. The pointer-free bit does not survive (nor does
// it survive decommit): a recommitted page waits for its next full-pass read.
func (r *Region) commit(addr, n uint64, prot Prot) int {
	r.ensureBacking()
	first := r.pageIndexOf(addr)
	last := r.pageIndexOf(addr + n - 1)
	newly := 0
	var wipedDirty int64
	bits := pageResident | protBits(prot)
	for i := first; i <= last; i++ {
		var old uint32
		for {
			old = r.pages[i].Load()
			if r.pages[i].CompareAndSwap(old, old&(pageBusy|pageKnownZero)|bits) {
				break
			}
		}
		if old&pageDirty != 0 {
			wipedDirty++
		}
		if old&pageResident == 0 {
			newly++
			if r.parent == nil {
				if old&pageKnownZero != 0 {
					r.space.zeroElided.Add(PageSize)
				} else {
					r.zeroRange(r.PageAddr(i), PageSize)
				}
			}
		}
	}
	if wipedDirty != 0 {
		r.space.dirtyPages.Add(-wipedDirty)
	}
	r.resident.Add(int32(newly))
	return newly
}

// decommit releases the physical backing of pages [addr, addr+n). Contents
// are not touched — like madvise(DONTNEED), the frames simply cease to exist;
// commit zero-fills on re-residency, so a decommitted-then-recommitted page
// still reads as zero. When the whole region goes non-resident its backing is
// dropped to the pool. Returns the number of pages that were resident.
// The known-zero bit is preserved across decommit: nothing writes a
// non-resident page, so words that were zero stay zero in the (retained)
// backing, and commit's re-zero elision depends on the bit surviving. When
// the whole region's backing is dropped, every page becomes known-zero —
// the next ensureBacking installs zeroed frames — which is what makes an
// unmap/remap or full purge/recommit cycle cost no zeroing at all.
func (r *Region) decommit(addr, n uint64) int {
	first := r.pageIndexOf(addr)
	last := r.pageIndexOf(addr + n - 1)
	released := 0
	var wipedDirty int64
	for i := first; i <= last; i++ {
		var old uint32
		for {
			old = r.pages[i].Load()
			if r.pages[i].CompareAndSwap(old, old&(pageBusy|pageKnownZero)) {
				break
			}
		}
		if old&pageDirty != 0 {
			wipedDirty++
		}
		if old&pageResident != 0 {
			released++
		}
	}
	if wipedDirty != 0 {
		r.space.dirtyPages.Add(-wipedDirty)
	}
	if released > 0 && r.resident.Add(int32(-released)) == 0 && r.parent == nil {
		if old := r.words.Swap(nil); old != nil {
			r.space.putBacking(*old)
			r.setAllKnownZero()
		}
	}
	return released
}

// setAllKnownZero publishes every page as known-zero after the region's
// backing is dropped: the stale frames are gone and the replacement arrives
// zeroed from the pool. The region is fully non-resident here (that is the
// drop condition) and owner-serialised against recommit, so no store or
// zeroing can race the publication; the loop still refuses to cover a dirty
// page, preserving the never-dirty-and-known-zero invariant.
func (r *Region) setAllKnownZero() {
	for i := range r.pages {
		r.markKnownZero(i)
	}
}

// protect changes the protection of pages [addr, addr+n) without touching
// residency or contents.
func (r *Region) protect(addr, n uint64, prot Prot) {
	first := r.pageIndexOf(addr)
	last := r.pageIndexOf(addr + n - 1)
	bits := protBits(prot)
	for i := first; i <= last; i++ {
		for {
			old := r.pages[i].Load()
			nw := old&^(pageRead|pageWrite) | bits
			if r.pages[i].CompareAndSwap(old, nw) {
				break
			}
		}
	}
}

// clearSoftDirty clears every page's soft-dirty bit and the summary bitmap.
//
// Interleaving with concurrent writers: store() sets the dirty bit after its
// word store (see the contract on store), so a writer racing this clear either
// loses its dirty bit — in which case its word store already happened and the
// caller's subsequent scan of the page observes it — or re-dirties the page
// after the clear, and the next dirty pass picks it up. Either way no store
// is both unscanned and unflagged.
//
// The summary words are zeroed BEFORE the per-page bits. A writer sets the
// page bit first and the summary bit second, so a page bit that survives (or
// is set after) our per-page clears was set after the summary wipe — and the
// writer's later summary Or necessarily lands after it too, keeping the
// invariant that a dirty page's summary bit is set once its writer completes.
// Clearing in the opposite order loses exactly the interleaving where the
// writer's page-set lands after our page clear but its summary Or before our
// summary wipe, leaving a dirty page invisible to the summary readers.
//
// Note the page-state rewrites in commit and decommit also wipe the dirty bit
// (and decrement the space's dirty-page count). That is correct for the
// sweeper's purposes: commit zero-fills (nothing to scan) and decommit drops
// the page (reads as zero). The summary bit those wipes strand is harmless:
// summary readers re-check the per-page bit.
//
// The listed flag is cleared before anything else: a writer checks it AFTER
// setting its page and summary bits, so a writer that skips re-listing on a
// still-set flag dirtied its page before our per-page clears below — its
// store is covered by the caller's full scan — while one that sees the flag
// already cleared re-lists the region for the new window.
func (r *Region) clearSoftDirty() {
	r.dirtyListed.Store(false)
	for i := range r.dirtySum {
		r.dirtySum[i].Store(0)
	}
	var cleared int64
	for i := range r.pages {
		for {
			old := r.pages[i].Load()
			if old&pageDirty == 0 {
				break
			}
			if r.pages[i].CompareAndSwap(old, old&^pageDirty) {
				cleared++
				break
			}
		}
	}
	if cleared != 0 {
		r.space.dirtyPages.Add(-cleared)
	}
}

// DirtySummaryWords returns the length of the dirty summary bitmap: one
// uint64 per 64 pages, rounded up.
func (r *Region) DirtySummaryWords() int { return len(r.dirtySum) }

// DirtySummaryWord loads summary word w — a conservative view: a set bit
// means the page MAY be dirty (re-check PageDirty), a clear bit means no
// completed store has dirtied it since the word was last cleared.
func (r *Region) DirtySummaryWord(w int) uint64 { return r.dirtySum[w].Load() }

// TakeDirtySummaryWord atomically takes summary word w, clearing it — the
// word-granular test-and-clear behind the concurrent pre-clean rounds. The
// caller must TestClearPageDirty-and-scan every page whose bit it took:
// writers set the page bit before the summary bit, so a page dirtied
// concurrently either had its bit taken here (and is consumed by the caller's
// per-page test-and-clear) or re-sets the summary word after this take and is
// picked up by the next dirty pass.
func (r *Region) TakeDirtySummaryWord(w int) uint64 { return r.dirtySum[w].Swap(0) }

// TestClearPageDirty atomically clears page i's soft-dirty bit and reports
// whether it was set — the test-and-clear primitive behind the concurrent
// pre-clean rounds of the pipelined sweep. The caller must scan the page
// after a true return; the store() ordering contract then guarantees every
// write whose dirty-set this consumed is observed by that scan.
//
// Implemented as a CAS loop rather than atomic.Uint32.And: the And intrinsic
// is miscompiled on this toolchain (go1.24.0) when its returned old value is
// consumed, corrupting live registers in the inlined caller.
func (r *Region) TestClearPageDirty(i int) bool {
	for {
		old := r.pages[i].Load()
		if old&pageDirty == 0 {
			return false
		}
		if r.pages[i].CompareAndSwap(old, old&^pageDirty) {
			r.space.dirtyPages.Add(-1)
			return true
		}
	}
}

// PageKnownZero reports whether page i is known-zero: every word is zero by
// construction (zeroed, purged, or freshly committed) and no store has
// completed since. A true return licenses a scanner to treat the page as a
// run of zeros without reading it; a store completing concurrently with the
// check retires the bit only after its word lands, so acting on a stale
// true is indistinguishable from having scanned the page just before that
// store (whose dirty bit then routes it to any re-scan pass).
func (r *Region) PageKnownZero(i int) bool {
	return r.pages[i].Load()&pageKnownZero != 0
}

// PagePtrFree reports whether page i is pointer-free: the sweep's last
// full-pass read of it found no heap-range word and no store has completed
// since. A true return licenses a scanner to skip the page on the same terms
// as PageKnownZero.
func (r *Region) PagePtrFree(i int) bool {
	return r.pages[i].Load()&pagePtrFree != 0
}

// KnownZeroSummaryWords returns the length of the skip summary bitmap: one
// uint64 per 64 pages, rounded up (same geometry as the dirty summary).
func (r *Region) KnownZeroSummaryWords() int { return len(r.zeroSum) }

// KnownZeroSummaryWord loads skip summary word w, which covers the
// known-zero and pointer-free bits. Both polarities are hints — a set bit
// means the page is probably skippable (confirm with PageKnownZero or
// PagePtrFree before skipping), a clear bit means probably not (scanning
// anyway is always correct) — so readers carry no ordering obligations.
func (r *Region) KnownZeroSummaryWord(w int) uint64 { return r.zeroSum[w].Load() }
