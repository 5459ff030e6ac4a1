package sweep

import (
	"testing"

	"minesweeper/internal/mem"
	"minesweeper/internal/shadow"
)

// markAllPerWord reproduces the seed scan loop — Region.WordAt plus a full
// Bitmap.Mark per word, one shared ticket, no marker, no zero fast path — so
// the bulk-scan path's speedup stays measurable in-tree (the acceptance bar
// is ≥2×; see BenchmarkSweepMarkAll and EXPERIMENTS.md).
func (s *Sweeper) markAllPerWord() uint64 {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	var scanned uint64
	for _, c := range s.collectChunks(false, false) {
		r := c.r
		for p := c.pageFirst; p < c.pageAfter; p++ {
			if !r.PageReadable(p) {
				continue
			}
			wordBase := p * mem.WordsPerPage
			r.LockPage(p)
			for w := 0; w < mem.WordsPerPage; w++ {
				v := r.WordAt(wordBase + w)
				if mem.IsHeapAddr(v) {
					s.marks.Mark(v)
				}
			}
			r.UnlockPage(p)
			scanned += mem.PageSize
		}
	}
	s.bytesSwept.Add(scanned)
	return scanned
}

// fillBenchHeap writes a realistic sweep workload: half the pages hold
// 64-byte "objects" whose first word is a pointer (density 1/8 of words,
// rest zeros); the other half are fully zero, like purged or freshly
// committed pages on a zero-on-free heap. Pointer targets walk forward in
// small strides — consecutive pointers in a page overwhelmingly reference
// consecutively pool-allocated objects (arrays of nodes, slab neighbours) —
// with an occasional far jump to a new "pool", which is the clustering the
// write-combining Marker is built for.
func fillBenchHeap(tb testing.TB, as *mem.AddressSpace, heap *mem.Region) {
	tb.Helper()
	rng := uint64(99)
	size := heap.Size()
	cursor := heap.Base()
	for page := uint64(0); page < size/mem.PageSize; page += 2 {
		base := heap.Base() + page*mem.PageSize
		for off := uint64(0); off < mem.PageSize; off += 64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			if rng%32 == 0 {
				// New pool: jump anywhere in the heap.
				cursor = heap.Base() + (rng>>8)%size
			} else {
				// Next object in the pool: 16-240 bytes onward.
				cursor += 16 + (rng>>8)%225&^15
				if cursor >= heap.Base()+size {
					cursor = heap.Base()
				}
			}
			if err := as.Store64(base+off, cursor&^7); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

func newBenchSweeper(tb testing.TB, heapBytes uint64) (*Sweeper, *shadow.Bitmap) {
	tb.Helper()
	as := mem.NewAddressSpace()
	heap, err := as.Map(mem.KindHeap, heapBytes, true)
	if err != nil {
		tb.Fatal(err)
	}
	fillBenchHeap(tb, as, heap)
	marks, err := shadow.New(mem.HeapBase, mem.HeapLimit, 4)
	if err != nil {
		tb.Fatal(err)
	}
	return New(as, marks, 0), marks
}

// BenchmarkSweepMarkAll compares a full marking pass through the seed
// per-word path against the bulk-scan + Marker rebuild, single-worker so the
// ns/op ratio isolates the hot loop rather than host parallelism.
func BenchmarkSweepMarkAll(b *testing.B) {
	const heapBytes = 64 << 20
	b.Run("perword", func(b *testing.B) {
		s, marks := newBenchSweeper(b, heapBytes)
		b.SetBytes(heapBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.markAllPerWord()
			marks.ClearAll()
		}
	})
	b.Run("bulk", func(b *testing.B) {
		s, marks := newBenchSweeper(b, heapBytes)
		b.SetBytes(heapBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.MarkAll()
			marks.ClearAll()
		}
	})
}

// TestBulkPathMatchesPerWord proves the rebuilt hot path (bulk page scan,
// zero fast path, per-worker Markers, striped stealing queue) marks exactly
// the granule set the seed per-word path marks, on a randomized workload.
func TestBulkPathMatchesPerWord(t *testing.T) {
	const heapBytes = 8 << 20
	ref, refMarks := newBenchSweeper(t, heapBytes)
	refSwept := ref.markAllPerWord()

	bulk, bulkMarks := newBenchSweeper(t, heapBytes)
	// Force multiple workers regardless of host GOMAXPROCS so the striped
	// queue and stealing paths are exercised. The per-word reference path
	// never consults the known-zero map, so disable the skip for equivalence.
	bulk.SetKnownZeroSkip(false)
	bulk.helpers.Store(3)
	bulkSwept := bulk.MarkAll()

	if refSwept != bulkSwept {
		t.Errorf("bytes swept: perword %d, bulk %d", refSwept, bulkSwept)
	}
	if a, b := refMarks.PopCount(), bulkMarks.PopCount(); a != b {
		t.Fatalf("popcount: perword %d, bulk %d", a, b)
	}
	for addr := mem.HeapBase; addr < mem.HeapBase+2*heapBytes; addr += 16 {
		if refMarks.Test(addr) != bulkMarks.Test(addr) {
			t.Fatalf("granule %#x: perword %v, bulk %v", addr, refMarks.Test(addr), bulkMarks.Test(addr))
		}
	}
}

// TestWorkQueueReuse checks that back-to-back passes reuse the chunk queue's
// backing array and keep producing correct results.
func TestWorkQueueReuse(t *testing.T) {
	as := mem.NewAddressSpace()
	heap, _ := as.Map(mem.KindHeap, 512*mem.PageSize, true)
	if err := as.Store64(heap.Base()+8, heap.Base()+0x100); err != nil {
		t.Fatal(err)
	}
	marks, _ := shadow.New(mem.HeapBase, mem.HeapLimit, 4)
	s := New(as, marks, 2)

	first := s.MarkAll()
	capAfterFirst := cap(s.chunks)
	for i := 0; i < 5; i++ {
		marks.ClearAll()
		if got := s.MarkAll(); got != first {
			t.Fatalf("pass %d swept %d bytes, want %d", i, got, first)
		}
		if !marks.Test(heap.Base() + 0x100) {
			t.Fatalf("pass %d missed the planted pointer", i)
		}
	}
	if cap(s.chunks) != capAfterFirst {
		t.Errorf("chunk queue reallocated: cap %d -> %d", capAfterFirst, cap(s.chunks))
	}
}

// TestStripedStealing covers the striped queue with more workers than the
// host has cores and stripes of uneven length, so finished workers steal
// from the still-loaded ones.
func TestStripedStealing(t *testing.T) {
	as := mem.NewAddressSpace()
	// 17 chunks' worth of pages across 8 workers: stripes of 3 and 2.
	heap, _ := as.Map(mem.KindHeap, 17*chunkPages*mem.PageSize, true)
	var want []uint64
	for i := 0; i < 64; i++ {
		tgt := heap.Base() + uint64(i)*mem.PageSize*11 + 0x40
		if err := as.Store64(heap.Base()+uint64(i)*8*mem.PageSize, tgt); err != nil {
			t.Fatal(err)
		}
		want = append(want, tgt)
	}
	marks, _ := shadow.New(mem.HeapBase, mem.HeapLimit, 4)
	s := New(as, marks, 0)
	s.helpers.Store(7)        // bypass the GOMAXPROCS clamp: stealing must still be correct
	s.SetKnownZeroSkip(false) // this test asserts every byte is visited
	if swept := s.MarkAll(); swept != heap.Size() {
		t.Errorf("swept %d bytes, want %d", swept, heap.Size())
	}
	for _, tgt := range want {
		if !marks.Test(tgt) {
			t.Errorf("stolen chunk's pointer %#x not marked", tgt)
		}
	}
}

// fillSteadyHeap writes a heap that mostly holds data, not pointers: one
// page in four carries pointer objects (fillBenchHeap's layout), two carry
// payload words outside the heap range every 64 bytes, and one holds a
// single stored zero — scrubbed memory that is zero but not known-zero.
// That is the shape of a zero-on-free heap whose program stores payloads
// (the pressure ramp's), and the three pointer-free pages in four are what
// the pointer-free skip lets a steady-state pass leave unread.
func fillSteadyHeap(tb testing.TB, as *mem.AddressSpace, heap *mem.Region) {
	tb.Helper()
	rng := uint64(7)
	for page := uint64(0); page < heap.Size()/mem.PageSize; page++ {
		base := heap.Base() + page*mem.PageSize
		for off := uint64(0); off < mem.PageSize; off += 64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			var v uint64
			switch page % 4 {
			case 0:
				v = heap.Base() + (rng>>8)%heap.Size()&^7
			case 1, 2:
				v = rng >> 32 // below HeapBase: payload, not a pointer
			default:
				if off != 0 {
					continue
				}
			}
			if err := as.Store64(base+off, v); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// BenchmarkMarkAllSteady times a full pass over a heap the previous pass
// already read and nothing has written since — the steady state between
// sweeps of a program that stores few pointers. "skip" leaves the
// pointer-free pages unread; "noskip" (SetKnownZeroSkip(false)) reads every
// page as the pass did before the skip existed. Single worker, like
// BenchmarkSweepMarkAll.
func BenchmarkMarkAllSteady(b *testing.B) {
	const heapBytes = 64 << 20
	for _, skip := range []bool{true, false} {
		name := "skip"
		if !skip {
			name = "noskip"
		}
		b.Run(name, func(b *testing.B) {
			as := mem.NewAddressSpace()
			heap, err := as.Map(mem.KindHeap, heapBytes, true)
			if err != nil {
				b.Fatal(err)
			}
			fillSteadyHeap(b, as, heap)
			marks, err := shadow.New(mem.HeapBase, mem.HeapLimit, 4)
			if err != nil {
				b.Fatal(err)
			}
			s := New(as, marks, 0)
			s.SetKnownZeroSkip(skip)
			s.MarkAll() // the previous sweep's pass
			marks.ClearAll()
			b.SetBytes(heapBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.MarkAll()
				marks.ClearAll()
			}
		})
	}
}
