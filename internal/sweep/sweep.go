// Package sweep implements MineSweeper's linear memory sweep (§3.1, §4.4):
// a parallel scan of all program memory — heap, stacks and globals — that
// interprets every aligned word as a potential pointer and marks the target
// granule in the shadow map. Unlike a garbage collector's transitive marking,
// the scan is a single linear pass; zero-on-free (performed by the core
// layer) is what makes that sufficient.
//
// Sweep work is divided among a main sweeper and a configurable number of
// helpers (6 by default, as in the paper). Parallel is the one fork-join
// that does it, for the marking passes here and for the core layer's
// recycle: the caller plus up to workers-1 goroutines started for the call,
// each draining its own contiguous stripe of the items and then stealing
// from the others' stripes, so a descheduled worker does not hold up the
// rest. The marking passes cut memory into fixed-size page chunks as items.
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
// Mark runs one marking pass of four kinds (Pass), all reading pages
// through the one primitive mem.Region.ScanPageWords. Full is the
// concurrent full pass; it sets the primitive's flag, so a page it reads
// and finds free of heap-range words is flagged pointer-free for the next
// pass (SetKnownZeroSkip(false) turns the flag off with the skips). The
// mostly-concurrent mode then tracks the pages written since ClearSoftDirty
// through the simulated soft-dirty page bits, standing in for Linux's
// soft-dirty PTEs (§4.3). Its full pass is FullTake, which takes the dirty
// bit of each page just before reading it, so a page stays dirty only if a
// store landed after the pass read it or the pass skipped it. DirtyTake is
// a concurrent pre-clean round that test-and-clears each dirty page and
// scans it, and Dirty is the brief stop-the-world re-scan of the pages
// still dirty. These two scan without the flag.
package sweep

import (
	"iter"
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

	// runMu serialises marking passes so the chunk queue and the region
	// snapshot can be reused across sweeps without reallocation. Sweeps are
	// already serialised by the core layer's sweep lock; this keeps the
	// Sweeper safe on its own.
	runMu  sync.Mutex
	chunks []chunk       // reusable work queue, valid only during a pass
	regs   []*mem.Region // reusable region snapshot (full or dirtied)

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
// the zero-skip compare short-circuited, and what the page skips dismissed.
// The core layer folds one into each per-sweep record.
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

// Pass is the kind of a marking pass: which pages it visits, and whether it
// takes each visited page's soft-dirty bit (TestClearPageDirty) just before
// reading it. Pages re-dirtied after a take are caught by the next pre-clean
// round or the final stop-the-world Dirty pass.
type Pass uint8

const (
	// Full reads every sweepable page except those the known-zero and
	// pointer-free skips dismiss, and flags the pages it reads pointer-free
	// when they hold no heap-range word: the pass of the fully-concurrent
	// and synchronous modes. It runs concurrently with mutators (their
	// stores are atomic, as are its loads).
	Full Pass = iota
	// FullTake is Full taking, just before it reads a page, that page's
	// soft-dirty bit — the full pass of the mostly-concurrent mode, after
	// ClearSoftDirty. A page the pass reads stays clean unless a store lands
	// after the take, so the pre-clean rounds and the stop-the-world re-scan
	// behind it visit only pages written during the pass and pages it
	// skipped.
	FullTake
	// Dirty re-scans only pages whose soft-dirty bit is set and leaves the
	// bits set; the next sweep's ClearSoftDirty resets them. The caller
	// stops the world around it: the mostly-concurrent mode's re-scan.
	Dirty
	// DirtyTake scans the pages whose soft-dirty bit is set, taking each bit
	// as it goes — a concurrent pre-clean round. It runs WITHOUT stopping
	// the world: the store() ordering contract in mem guarantees every write
	// whose dirty bit the pass took is observed by the scan, and writes
	// landing after the take re-dirty their page for the next round or the
	// final stop-the-world re-scan. Each round thus shrinks the dirty set the
	// stop-the-world window must visit to the pages written during the round.
	DirtyTake
)

func (p Pass) dirty() bool { return p >= Dirty }
func (p Pass) take() bool  { return p == FullTake || p == DirtyTake }

// chunk is one unit of scanning work: pages [pageFirst, pageAfter) of r.
type chunk struct {
	r         *mem.Region
	pageFirst int
	pageAfter int
}

// stripe is one worker's contiguous range of a Parallel call's items. The
// owner and any thieves claim items through the same atomic ticket, so
// stealing needs no extra synchronisation; the padding keeps each ticket on
// its own cache line so workers do not false-share their counters.
type stripe struct {
	next atomic.Int64
	end  int64
	_    [48]byte
}

// collectChunks slices sweepable regions into page chunks, reusing the
// queue's backing array from the previous pass. Full passes cover every
// region. Dirty passes iterate just the space's dirtied-region list —
// never the full region set, which can reach tens of thousands of
// extent-granular entries and does not belong inside a stop-the-world
// window — and consult each region's dirty summary bitmap to emit chunks
// only for page ranges with at least one (possibly stale) summary bit set. This is what keeps the stop-the-world
// re-scan's cost proportional to the mutators' write rate rather than heap
// size. Caller holds runMu.
func (s *Sweeper) collectChunks(dirtyOnly bool) []chunk {
	chunks := s.chunks[:0]
	if dirtyOnly {
		s.regs = s.space.DirtyRegions(s.regs)
	} else {
		s.regs = s.space.Regions(s.regs)
	}
	for _, r := range s.regs {
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
			chunks = append(chunks, chunk{r: r, pageFirst: p, pageAfter: end})
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
// Each 64-page word of the chunk yields the pages to visit: every page on a
// full pass, the pages with a set dirty summary bit on a dirty pass, so a
// chunk that survived collectChunks on one stale bit costs a few word loads,
// not 256 page-state checks. A DirtyTake pass takes each summary word before
// its page bits — see mem.Region.TakeDirtySummaryWord for why that order
// loses no writes — so each round also re-tightens the summary for the
// rounds and the final stop-the-world pass behind it. The per-page dirty bit
// stays the source of truth: a summary bit whose page bit is clear (stranded
// by a bulk state rewrite or an earlier take) is simply skipped.
//
// On a full pass, before the 8-wide word loop ever runs, whole pages are
// dismissed through the skip bits: one summary-word load probes 64 pages,
// and each candidate is confirmed against the per-page bits (the truth — the
// summary is a hint in both directions). A skipped page generates zero
// memory traffic. A page is skipped if it is known-zero, or pointer-free:
// the last full pass read it and found no heap-range word. Safety: both bits
// are retired by the same post-store CAS that sets the page's dirty bit, so
// skipping on a bit the scan observed set is indistinguishable from having
// read the page just before any concurrent store — which the concurrent-mark
// mode already permits — while in mostly-concurrent mode the store's dirty
// bit routes the page to the stop-the-world re-scan, which never consults
// either bit. Every page a full pass does read is flagged pointer-free for
// the next pass if the read finds no heap-range word
// (mem.Region.ScanPageWords with its flag set). FullTake takes the dirty bit
// of each page the probes did not skip before the read, on the pre-clean's
// terms: a store sets the bit after its word lands, so a bit taken here was
// set before a read that sees the word, and a bit set after the take
// survives for the pre-clean and the re-scan. Skipped pages keep their bit.
//
// Dirty passes read every page they visit and never flag one — a dirty page
// cannot be known-zero (the store CAS clears one bit as it sets the other),
// and the stop-the-world correctness argument depends on the re-scan never
// trusting either skip bit.
func (s *Sweeper) scanChunk(c chunk, p Pass, mk *shadow.Marker, t *tally) {
	r := c.r
	var zeroWords int
	scan := func(words []uint64) int {
		z, hits := scanPageWords(words, mk)
		zeroWords += z
		return hits
	}
	full, take := !p.dirty(), p.take()
	skip := full && !s.kzSkipOff.Load()
	// Chunks start on a 64-page boundary, so only the last word of a region
	// needs its pages past pageAfter masked off.
	for w, wEnd := c.pageFirst>>6, (c.pageAfter+63)>>6; w < wEnd; w++ {
		var visit, sum uint64
		switch {
		case full:
			visit = ^uint64(0)
			if skip {
				sum = r.KnownZeroSummaryWord(w)
			}
		case take:
			visit = r.TakeDirtySummaryWord(w)
		default:
			visit = r.DirtySummaryWord(w)
		}
		if n := c.pageAfter - w<<6; n < 64 {
			visit &= 1<<uint(n) - 1
		}
		for ; visit != 0; visit &= visit - 1 {
			b := bits.TrailingZeros64(visit)
			pg := w<<6 + b
			if sum&(1<<uint(b)) != 0 {
				if r.PageKnownZero(pg) {
					t.kzPages++
					continue
				}
				if r.PagePtrFree(pg) {
					t.pfPages++
					continue
				}
			}
			if take {
				if !r.TestClearPageDirty(pg) && !full {
					continue
				}
			} else if !full && !r.PageDirty(pg) {
				continue
			}
			// The page lock (taken inside the scan primitive) orders this
			// scan against bulk zeroing (free, decommit) so the sweeper
			// never reads half-zeroed memory.
			if r.ScanPageWords(pg, skip, scan) {
				t.scanned += mem.PageSize
				t.pages++
			}
		}
	}
	t.zeroBytes += uint64(zeroWords) * 8
}

// Parallel is the sweep's one fork-join. It runs body(w, items) once on
// each of up to workers workers — the caller as worker 0, plus goroutines
// started for this call — where items yields indices in [0, n). Every
// index is yielded to exactly one worker. Each worker claims its own
// contiguous stripe of the indices in order first, then steals from the
// other stripes round-robin, so a worker that was descheduled mid-stripe has
// its remaining items finished by the others. With one worker every index
// arrives in order on the caller's goroutine. Parallel returns once every
// body has returned, and charges its elapsed time to the busy meter (see
// busyShare); it returns that elapsed time. Per-worker state belongs in
// body, on the worker's own goroutine.
func (s *Sweeper) Parallel(workers, n int, body func(w int, items iter.Seq[int])) time.Duration {
	if n <= 0 {
		return 0
	}
	workers = max(1, min(workers, n))
	stripes := make([]stripe, workers)
	per, rem := n/workers, n%workers
	lo := 0
	for i := range stripes {
		k := per
		if i < rem {
			k++
		}
		stripes[i].next.Store(int64(lo))
		stripes[i].end = int64(lo + k)
		lo += k
	}
	items := func(w int) iter.Seq[int] {
		return func(yield func(int) bool) {
			for off := range stripes {
				st := &stripes[(w+off)%workers]
				for i := st.next.Add(1) - 1; i < st.end; i = st.next.Add(1) - 1 {
					if !yield(int(i)) {
						return
					}
				}
			}
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(w, items(w))
		}()
	}
	body(0, items(0))
	wg.Wait()
	elapsed := time.Since(start)
	s.busyNanos.Add(int64(busyShare(elapsed, workers)))
	return elapsed
}

// busyShare estimates the CPU time a background phase of the given worker
// count actually consumed during an elapsed interval. With spare cores the
// workers own their cores and busy = elapsed x workers. On a fully
// oversubscribed host (GOMAXPROCS 1) the scheduler time-slices the phase
// against the mutators, so roughly half the elapsed interval belongs to the
// background work; counting all of it would both overstate CPU utilisation
// (Figure 12) and over-credit the adjusted wall time.
func busyShare(elapsed time.Duration, workers int) time.Duration {
	procs := runtime.GOMAXPROCS(0) // read once: clamp and halving must agree
	busy := elapsed * time.Duration(min(workers, procs))
	if procs <= 1 {
		busy /= 2
	}
	return busy
}

// Mark runs one marking pass of kind p over the main sweeper and its
// helpers (Parallel over the pass's page chunks) and returns its figures.
func (s *Sweeper) Mark(p Pass) PassStats {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	chunks := s.collectChunks(p.dirty())
	var total, totalPages, totalZero, totalKZ, totalPF atomic.Uint64
	elapsed := s.Parallel(s.Workers(), len(chunks), func(_ int, items iter.Seq[int]) {
		mk := s.marks.NewMarker()
		var t tally
		for i := range items {
			s.scanChunk(chunks[i], p, mk, &t)
		}
		mk.Flush()
		total.Add(t.scanned)
		totalPages.Add(uint64(t.pages))
		totalZero.Add(t.zeroBytes)
		totalKZ.Add(uint64(t.kzPages))
		totalPF.Add(uint64(t.pfPages))
	})
	ps := PassStats{
		BytesScanned:     total.Load(),
		PagesScanned:     totalPages.Load(),
		ZeroSkippedBytes: totalZero.Load(),
		KnownZeroPages:   totalKZ.Load(),
		PtrFreePages:     totalPF.Load(),
		ElapsedNanos:     elapsed.Nanoseconds(),
	}
	s.bytesSwept.Add(ps.BytesScanned)
	s.pagesSwept.Add(ps.PagesScanned)
	s.zeroSkipped.Add(ps.ZeroSkippedBytes)
	s.kzSkipped.Add(ps.KnownZeroPages)
	s.pfSkipped.Add(ps.PtrFreePages)
	return ps
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
