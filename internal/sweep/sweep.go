// Package sweep implements MineSweeper's linear memory sweep (§3.1, §4.4):
// a parallel scan of all program memory — heap, stacks and globals — that
// interprets every aligned word as a potential pointer and marks the target
// granule in the shadow map. Unlike a garbage collector's transitive marking,
// the scan is a single linear pass; zero-on-free (performed by the core
// layer) is what makes that sufficient.
//
// Work is divided among a main sweeper and a configurable number of helpers
// (6 by default, as in the paper), each taking fixed-size page chunks from a
// striped work queue: every worker drains its own contiguous range of chunks
// and steals from the others' ranges once its own runs dry, so large regions
// do not serialise all workers on one shared ticket counter. The chunk queue
// and stripe descriptors are reused across sweeps.
//
// The per-chunk hot loop is deliberately lean: mem.Region.ScanPageWords
// yields each page's backing as a plain []uint64 under the page lock (one
// lock and one backing lookup per page instead of a WordAt pointer chase per
// word), zero words — the common case on zero-on-free heaps — are skipped
// with a single compare, and marks are buffered through a per-worker
// shadow.Marker that batches clustered marks into one atomic OR.
//
// Only resident, readable pages are scanned, so pages that were purged or
// unmapped in quarantine are skipped (§4.2, §4.5). The full pass also skips,
// without a single load, pages that are zero by construction (known-zero)
// and pages its previous read found free of heap-range words and that no
// store has touched since (pointer-free).
//
// Three passes read pages, all through the one primitive
// mem.Region.ScanPageWords. MarkAll is the concurrent full pass; it sets the
// primitive's flag, so a page it reads and finds free of heap-range words is
// flagged pointer-free for the next pass (SetKnownZeroSkip(false) turns the
// flag off with the skips). The mostly-concurrent mode then tracks the pages
// written since ClearSoftDirty through the simulated soft-dirty page bits,
// standing in for Linux's soft-dirty PTEs (§4.3). Its full pass is
// MarkAllClearStats, which takes the dirty bit of each page just before
// reading it, so a page stays dirty only if a store landed after the pass
// read it or the pass skipped it. MarkDirtyClearStats is a concurrent
// pre-clean round that test-and-clears each dirty page and scans it, and
// MarkDirty is the brief stop-the-world re-scan of the pages still dirty.
// These two scan without the flag.
package sweep

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"minesweeper/internal/mem"
	"minesweeper/internal/shadow"
)

// DefaultHelpers is the paper's default helper-thread count.
const DefaultHelpers = 6

// chunkPages is the unit of work distribution: 256 pages = 1 MiB per grab.
const chunkPages = 256

// StopTheWorld pauses and resumes all mutator threads. The mostly-concurrent
// mode uses it around the dirty re-scan; the fully concurrent mode never
// stops the world.
type StopTheWorld interface {
	// Stop returns once every mutator thread is parked at a safepoint.
	Stop()
	// Start resumes all mutator threads.
	Start()
}

// Sweeper scans program memory and marks potential pointer targets.
type Sweeper struct {
	space *mem.AddressSpace
	marks *shadow.Bitmap
	// helpers is atomic so the control plane can steer the worker count
	// between passes (SetHelpers); each pass reads it once at start.
	helpers atomic.Int32

	// runMu serialises passes so the work queue and stripe descriptors can
	// be reused across sweeps without reallocation. Sweeps are already
	// serialised by the core layer's sweep lock; this keeps the Sweeper
	// safe on its own.
	runMu     sync.Mutex
	chunks    []chunk       // reusable work queue, valid only during a pass
	stripes   []stripe      // reusable per-worker ticket ranges
	dirtyRegs []*mem.Region // reusable dirtied-region snapshot (dirty passes)

	// kzSkipOff disables the known-zero and pointer-free page skips
	// (ablation and A/B benchmarks); the zero value — skips enabled — is
	// the production configuration.
	kzSkipOff atomic.Bool

	bytesSwept  atomic.Uint64
	pagesSwept  atomic.Uint64
	zeroSkipped atomic.Uint64 // bytes skipped by the zero-group compare
	kzSkipped   atomic.Uint64 // pages skipped via the known-zero map
	pfSkipped   atomic.Uint64 // pages skipped as pointer-free
	busyNanos   atomic.Int64  // summed worker busy time (CPU usage meter)
}

// PassStats describes one marking pass: how much was scanned, how much of it
// the zero-skip compare short-circuited, and the parallelism that did the
// work. The telemetry layer folds one into each per-sweep record.
type PassStats struct {
	// BytesScanned and PagesScanned cover resident pages examined.
	BytesScanned uint64
	PagesScanned uint64
	// ZeroSkippedBytes is bytes dismissed eight words at a time by the
	// zero-group compare — the zero-on-free dividend (§4.1). It counts only
	// words actually read; pages the known-zero map skipped never generate
	// memory traffic and are counted in KnownZeroPages instead.
	ZeroSkippedBytes uint64
	// KnownZeroPages is pages dismissed by the known-zero map without a
	// single word load — zero-by-construction coverage the pass proved for
	// free. Not included in PagesScanned/BytesScanned, which measure real
	// memory traffic.
	KnownZeroPages uint64
	// PtrFreePages is pages dismissed, also without a word load, because
	// the previous full pass found no heap-range word in them and no store
	// has landed since. Disjoint from KnownZeroPages (a page that is both
	// counts as known-zero) and, like it, not in PagesScanned/BytesScanned.
	PtrFreePages uint64
	// Workers is the number of workers that ran the pass.
	Workers int
	// ElapsedNanos is the pass's wall time.
	ElapsedNanos int64
}

// New returns a Sweeper marking into marks with the given helper count
// (negative means DefaultHelpers). The effective count is clamped to the
// host's available parallelism: extra helpers on an oversubscribed host only
// time-slice against each other (the paper sized its 6 helpers to an 8-way
// machine).
func New(space *mem.AddressSpace, marks *shadow.Bitmap, helpers int) *Sweeper {
	if helpers < 0 {
		helpers = DefaultHelpers
	}
	s := &Sweeper{space: space, marks: marks}
	s.helpers.Store(int32(clampHelpers(helpers)))
	return s
}

// clampHelpers bounds a requested helper count to the host's available
// parallelism: extra helpers on an oversubscribed host only time-slice
// against each other (the paper sized its 6 helpers to an 8-way machine).
func clampHelpers(helpers int) int {
	if max := runtime.GOMAXPROCS(0) - 1; helpers > max {
		helpers = max
	}
	if helpers < 0 {
		helpers = 0
	}
	return helpers
}

// SetHelpers changes the helper count for subsequent passes, clamped the same
// way as New. Safe to call concurrently with a running pass (that pass keeps
// the count it started with).
func (s *Sweeper) SetHelpers(helpers int) {
	s.helpers.Store(int32(clampHelpers(helpers)))
}

// Workers returns the effective sweep worker count (main + helpers).
func (s *Sweeper) Workers() int { return int(s.helpers.Load()) + 1 }

// chunk is one unit of scanning work.
type chunk struct {
	r         *mem.Region
	pageFirst int
	pageAfter int
	dirtyOnly bool
	// clearDirty makes the chunk consume the dirty bit of each page it reads,
	// just before the read (TestClearPageDirty): the concurrent pre-clean
	// rounds of the pipelined sweep, and its full pass. Pages re-dirtied after
	// the test-and-clear are caught by the next round or the final STW
	// MarkDirty pass.
	clearDirty bool
}

// stripe is one worker's contiguous range of the chunk queue. The owner and
// any thieves claim chunks through the same atomic ticket, so stealing needs
// no extra synchronisation; the padding keeps each ticket on its own cache
// line so workers do not false-share their counters.
type stripe struct {
	next atomic.Int64
	end  int64
	_    [48]byte
}

// collectChunks slices sweepable regions into page chunks, reusing the
// queue's backing array from the previous pass. Full passes cover every
// region. Dirty-only passes iterate just the space's dirtied-region list —
// never the full region set, whose sorted snapshot can reach tens of
// thousands of extent-granular entries and is rebuilt on demand, neither of
// which belongs inside a stop-the-world window — and consult each region's
// dirty summary bitmap to emit chunks only for page ranges with at least one
// (possibly stale) summary bit set. This is what keeps the stop-the-world
// re-scan's cost proportional to the mutators' write rate rather than heap
// size. Caller holds runMu.
func (s *Sweeper) collectChunks(dirtyOnly, clearDirty bool) []chunk {
	chunks := s.chunks[:0]
	var regs []*mem.Region
	if dirtyOnly {
		s.dirtyRegs = s.space.DirtyRegions(s.dirtyRegs)
		regs = s.dirtyRegs
	} else {
		regs = s.space.Regions()
	}
	for _, r := range regs {
		switch r.Kind() {
		case mem.KindHeap, mem.KindStack, mem.KindGlobals:
		default:
			continue
		}
		n := r.PageCount()
		for p := 0; p < n; p += chunkPages {
			end := p + chunkPages
			if end > n {
				end = n
			}
			if dirtyOnly && !anyDirtySummary(r, p, end) {
				continue
			}
			chunks = append(chunks, chunk{r: r, pageFirst: p, pageAfter: end, dirtyOnly: dirtyOnly, clearDirty: clearDirty})
		}
	}
	s.chunks = chunks
	return chunks
}

// anyDirtySummary reports whether any summary word covering pages
// [first, after) of r is non-zero. Chunks are chunkPages-aligned and
// chunkPages is a multiple of 64, so summary words never straddle chunks.
func anyDirtySummary(r *mem.Region, first, after int) bool {
	for w, wEnd := first>>6, (after+63)>>6; w < wEnd; w++ {
		if r.DirtySummaryWord(w) != 0 {
			return true
		}
	}
	return false
}

// CountDirtyPages returns the number of soft-dirty pages across the address
// space, from the exact transition-maintained counter. The pipelined sweep
// uses it to decide whether another concurrent pre-clean round is worthwhile
// and — with the world stopped, where the frozen value is exact — whether the
// re-scan fits the pause budget or the stop should be aborted and retried.
// O(1), so both checks are free even inside a pause.
func (s *Sweeper) CountDirtyPages() uint64 { return s.space.DirtyPageCount() }

// scanPageWords is the sweep's innermost loop: every word of one page,
// already fetched as a plain slice under the page lock. Words are loaded
// atomically (mutator stores are per-word atomic and take no lock), eight at
// a time so a single OR-combined compare skips zero groups — on a
// zero-on-free heap most of the heap is zeros, and purged or freshly
// committed pages are entirely so. The heap filter is one subtract and one
// unsigned compare per surviving word; hits counts the words that passed it
// (and were marked), which is what the pointer-free bit records.
func scanPageWords(words []uint64, mk *shadow.Marker) (zeroWords, hits int) {
	const span = mem.HeapLimit - mem.HeapBase
	i := 0
	for ; i+8 <= len(words); i += 8 {
		v0 := atomic.LoadUint64(&words[i])
		v1 := atomic.LoadUint64(&words[i+1])
		v2 := atomic.LoadUint64(&words[i+2])
		v3 := atomic.LoadUint64(&words[i+3])
		v4 := atomic.LoadUint64(&words[i+4])
		v5 := atomic.LoadUint64(&words[i+5])
		v6 := atomic.LoadUint64(&words[i+6])
		v7 := atomic.LoadUint64(&words[i+7])
		if v0|v1|v2|v3|v4|v5|v6|v7 == 0 {
			zeroWords += 8
			continue
		}
		if v0-mem.HeapBase < span {
			mk.Mark(v0)
			hits++
		}
		if v1-mem.HeapBase < span {
			mk.Mark(v1)
			hits++
		}
		if v2-mem.HeapBase < span {
			mk.Mark(v2)
			hits++
		}
		if v3-mem.HeapBase < span {
			mk.Mark(v3)
			hits++
		}
		if v4-mem.HeapBase < span {
			mk.Mark(v4)
			hits++
		}
		if v5-mem.HeapBase < span {
			mk.Mark(v5)
			hits++
		}
		if v6-mem.HeapBase < span {
			mk.Mark(v6)
			hits++
		}
		if v7-mem.HeapBase < span {
			mk.Mark(v7)
			hits++
		}
	}
	for ; i < len(words); i++ {
		v := atomic.LoadUint64(&words[i])
		if v == 0 {
			zeroWords++
			continue
		}
		if v-mem.HeapBase < span {
			mk.Mark(v)
			hits++
		}
	}
	return zeroWords, hits
}

// tally accumulates one worker's pass figures across the chunks it scans.
type tally struct {
	scanned, zeroBytes      uint64
	pages, kzPages, pfPages int
}

// scanChunk marks pointer targets in one chunk through the worker's marker,
// adding bytes and pages scanned, pages skipped via the known-zero and
// pointer-free bits, and bytes skipped as zero groups to t.
//
// Before the 8-wide word loop ever runs, whole pages are dismissed through
// the skip bits: one summary-word load probes 64 pages, and each candidate
// is confirmed against the per-page bits (the truth — the summary is a hint
// in both directions). A skipped page generates zero memory traffic. A page
// is skipped if it is known-zero, or pointer-free: the last full pass read
// it and found no heap-range word. Safety: both bits are retired by the same
// post-store CAS that sets the page's dirty bit, so skipping on a bit the
// scan observed set is indistinguishable from having read the page just
// before any concurrent store — which the concurrent-mark mode already
// permits — while in mostly-concurrent mode the store's dirty bit routes
// the page to the stop-the-world re-scan, which never consults either bit.
// Every page this pass does read is flagged pointer-free for the next pass
// if the read finds no heap-range word (mem.Region.ScanPageWords with its
// flag set). With clearDirty (the mostly-concurrent full pass) each page the
// probes did not skip has its dirty bit taken before the read, on the
// pre-clean's terms: a store sets the bit after its word lands, so a bit
// taken here was set before a read that sees the word, and a bit set after
// the take survives for the pre-clean and the re-scan. Skipped pages keep
// their bit.
func (s *Sweeper) scanChunk(c chunk, mk *shadow.Marker, t *tally) {
	if c.dirtyOnly {
		s.scanDirtyChunk(c, mk, t)
		return
	}
	r := c.r
	var zeroWords int
	scan := func(words []uint64) int {
		z, hits := scanPageWords(words, mk)
		zeroWords += z
		return hits
	}
	skip := !s.kzSkipOff.Load()
	for w, wEnd := c.pageFirst>>6, (c.pageAfter+63)>>6; w < wEnd; w++ {
		var sum uint64
		if skip {
			sum = r.KnownZeroSummaryWord(w)
		}
		p, pEnd := w<<6, (w+1)<<6
		if p < c.pageFirst {
			p = c.pageFirst
		}
		if pEnd > c.pageAfter {
			pEnd = c.pageAfter
		}
		for ; p < pEnd; p++ {
			if sum&(1<<uint(p&63)) != 0 {
				if r.PageKnownZero(p) {
					t.kzPages++
					continue
				}
				if r.PagePtrFree(p) {
					t.pfPages++
					continue
				}
			}
			if c.clearDirty {
				r.TestClearPageDirty(p)
			}
			// The page lock (taken inside the scan primitive) orders this
			// scan against bulk zeroing (free, decommit) so the sweeper
			// never reads half-zeroed memory.
			if r.ScanPageWords(p, skip, scan) {
				t.scanned += mem.PageSize
				t.pages++
			}
		}
	}
	t.zeroBytes += uint64(zeroWords) * 8
}

// scanDirtyChunk is scanChunk for dirty-only passes: it walks the chunk's
// dirty summary words and visits only pages with a set summary bit, so a
// chunk that survived collectChunks on one stale bit costs a few word loads,
// not 256 page-state checks. The per-page dirty bit stays the source of
// truth: a summary bit whose page bit is clear (stranded by a bulk state
// rewrite or an earlier test-and-clear) is simply skipped. Pre-clean rounds
// (clearDirty) take each summary word before consuming its page bits — see
// mem.Region.TakeDirtySummaryWord for why that order loses no writes — so
// each round also re-tightens the summary for the rounds and the final
// stop-the-world pass behind it.
// Dirty pages are re-scanned unconditionally and never flagged — a dirty
// page cannot be known-zero (the store CAS clears one bit as it sets the
// other), and the stop-the-world correctness argument depends on the
// re-scan never trusting either skip bit.
func (s *Sweeper) scanDirtyChunk(c chunk, mk *shadow.Marker, t *tally) {
	r := c.r
	var zeroWords int
	scan := func(words []uint64) int {
		z, hits := scanPageWords(words, mk)
		zeroWords += z
		return hits
	}
	for w, wEnd := c.pageFirst>>6, (c.pageAfter+63)>>6; w < wEnd; w++ {
		var sum uint64
		if c.clearDirty {
			sum = r.TakeDirtySummaryWord(w)
		} else {
			sum = r.DirtySummaryWord(w)
		}
		for sum != 0 {
			b := bits.TrailingZeros64(sum)
			sum &= sum - 1
			p := w<<6 + b
			if p >= c.pageAfter {
				break
			}
			if c.clearDirty {
				if !r.TestClearPageDirty(p) {
					continue
				}
			} else if !r.PageDirty(p) {
				continue
			}
			if r.ScanPageWords(p, false, scan) {
				t.scanned += mem.PageSize
				t.pages++
			}
		}
	}
	t.zeroBytes += uint64(zeroWords) * 8
}

// run executes all chunks across the main goroutine plus helpers, returning
// total bytes scanned. Each worker drains its own stripe of the queue, then
// steals from the next stripes round-robin. Busy time is accounted as
// phase-elapsed time times the worker parallelism actually available, so an
// oversubscribed host does not inflate the CPU-utilisation meter with
// scheduler preemption. Caller holds runMu.
func (s *Sweeper) run(chunks []chunk) PassStats {
	if len(chunks) == 0 {
		return PassStats{Workers: 1}
	}
	workers := s.Workers()
	if workers > len(chunks) {
		workers = len(chunks)
	}
	if cap(s.stripes) < workers {
		s.stripes = make([]stripe, workers)
	}
	stripes := s.stripes[:workers]
	per, rem := len(chunks)/workers, len(chunks)%workers
	lo := 0
	for i := range stripes {
		n := per
		if i < rem {
			n++
		}
		stripes[i].next.Store(int64(lo))
		stripes[i].end = int64(lo + n)
		lo += n
	}
	var total, totalPages, totalZero, totalKZ, totalPF atomic.Uint64
	worker := func(id int) {
		mk := s.marks.NewMarker()
		var t tally
		for off := 0; off < len(stripes); off++ {
			st := &stripes[(id+off)%len(stripes)]
			for {
				i := st.next.Add(1) - 1
				if i >= st.end {
					break
				}
				s.scanChunk(chunks[i], mk, &t)
			}
		}
		mk.Flush()
		total.Add(t.scanned)
		totalPages.Add(uint64(t.pages))
		totalZero.Add(t.zeroBytes)
		totalKZ.Add(uint64(t.kzPages))
		totalPF.Add(uint64(t.pfPages))
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			worker(id)
		}(i)
	}
	worker(0)
	wg.Wait()
	elapsed := time.Since(start)
	s.busyNanos.Add(int64(BusyShare(elapsed, workers)))
	ps := PassStats{
		BytesScanned:     total.Load(),
		PagesScanned:     totalPages.Load(),
		ZeroSkippedBytes: totalZero.Load(),
		KnownZeroPages:   totalKZ.Load(),
		PtrFreePages:     totalPF.Load(),
		Workers:          workers,
		ElapsedNanos:     elapsed.Nanoseconds(),
	}
	s.bytesSwept.Add(ps.BytesScanned)
	s.pagesSwept.Add(ps.PagesScanned)
	s.zeroSkipped.Add(ps.ZeroSkippedBytes)
	s.kzSkipped.Add(ps.KnownZeroPages)
	s.pfSkipped.Add(ps.PtrFreePages)
	return ps
}

// BusyShare estimates the CPU time a background phase of the given worker
// count actually consumed during an elapsed interval. With spare cores the
// workers own their cores and busy = elapsed x workers. On a fully
// oversubscribed host (GOMAXPROCS 1) the scheduler time-slices the phase
// against the mutators, so roughly half the elapsed interval belongs to the
// background work; counting all of it would both overstate CPU utilisation
// (Figure 12) and over-credit the adjusted wall time.
func BusyShare(elapsed time.Duration, workers int) time.Duration {
	procs := runtime.GOMAXPROCS(0) // read once: clamp and halving must agree
	par := workers
	if par > procs {
		par = procs
	}
	busy := elapsed * time.Duration(par)
	if procs <= 1 {
		busy /= 2
	}
	return busy
}

// MarkAll performs the full linear pass over all sweepable memory, marking
// every word that could be a heap pointer. It runs concurrently with
// mutators (their stores are atomic, as are our loads) and returns the
// number of bytes scanned.
func (s *Sweeper) MarkAll() uint64 { return s.MarkAllStats().BytesScanned }

// MarkAllStats is MarkAll returning the full pass statistics for the
// telemetry layer's per-sweep records.
func (s *Sweeper) MarkAllStats() PassStats {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	return s.run(s.collectChunks(false, false))
}

// MarkAllClearStats is MarkAllStats consuming, just before it reads a page,
// that page's soft-dirty bit — the full pass of the mostly-concurrent mode,
// after ClearSoftDirty. A page the pass reads stays clean unless a store
// lands after the take, so the pre-clean rounds and the stop-the-world
// re-scan behind it visit only pages written during the pass and pages it
// skipped.
func (s *Sweeper) MarkAllClearStats() PassStats {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	return s.run(s.collectChunks(false, true))
}

// MarkDirty re-scans only pages whose soft-dirty bit is set. The caller is
// expected to have cleared soft-dirty bits before MarkAll and stopped the
// world around this call (mostly-concurrent mode). Dirty bits are left set;
// the next sweep's ClearSoftDirty resets them.
func (s *Sweeper) MarkDirty() uint64 { return s.MarkDirtyStats().BytesScanned }

// MarkDirtyStats is MarkDirty returning the full pass statistics.
func (s *Sweeper) MarkDirtyStats() PassStats {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	return s.run(s.collectChunks(true, false))
}

// MarkDirtyClearStats scans pages whose soft-dirty bit is set, consuming the
// bit as it goes — a concurrent pre-clean round. It runs WITHOUT stopping the
// world: the store() ordering contract in mem guarantees every write whose
// dirty bit this pass consumed is observed by the scan, and writes landing
// after the test-and-clear re-dirty their page for the next round or the
// final STW re-scan. Each round thus shrinks the dirty set the STW window
// must visit to the pages written during the round itself.
func (s *Sweeper) MarkDirtyClearStats() PassStats {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	return s.run(s.collectChunks(true, true))
}

// BytesSwept returns the cumulative bytes scanned across all passes.
func (s *Sweeper) BytesSwept() uint64 { return s.bytesSwept.Load() }

// PagesSwept returns the cumulative resident pages scanned across all passes.
func (s *Sweeper) PagesSwept() uint64 { return s.pagesSwept.Load() }

// ZeroSkippedBytes returns the cumulative bytes the scan loop dismissed as
// all-zero groups — the zero-on-free dividend (§4.1).
func (s *Sweeper) ZeroSkippedBytes() uint64 { return s.zeroSkipped.Load() }

// KnownZeroPages returns the cumulative pages dismissed via the known-zero
// map, with no memory traffic at all.
func (s *Sweeper) KnownZeroPages() uint64 { return s.kzSkipped.Load() }

// PtrFreePages returns the cumulative pages dismissed as pointer-free, with
// no memory traffic at all.
func (s *Sweeper) PtrFreePages() uint64 { return s.pfSkipped.Load() }

// SetKnownZeroSkip enables or disables the known-zero and pointer-free page
// skips for subsequent passes. On by default; disabling it is the ablation
// arm of the A/B benchmarks (every page is then scanned word by word, with
// only the 8-wide zero-group compare to help, and no page is flagged
// pointer-free). Safe to call concurrently with a running pass.
func (s *Sweeper) SetKnownZeroSkip(on bool) { s.kzSkipOff.Store(!on) }

// BusyTime returns cumulative worker busy time — the additional CPU usage
// the paper reports in Figure 12.
func (s *Sweeper) BusyTime() time.Duration { return time.Duration(s.busyNanos.Load()) }

// AddBusyTime accounts extra sweeper-thread work (e.g. the recycle phase)
// into the CPU usage meter.
func (s *Sweeper) AddBusyTime(d time.Duration) { s.busyNanos.Add(int64(d)) }
