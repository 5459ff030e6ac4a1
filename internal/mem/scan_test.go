package mem

import (
	"sync/atomic"
	"testing"
)

func TestScanPageWordsReadsPageContents(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, 2*PageSize, true)
	if err := as.Store64(r.Base()+PageSize+24, 0xdead); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	ok := r.ScanPageWords(1, false, func(words []uint64) int {
		if len(words) != WordsPerPage {
			t.Errorf("len(words) = %d, want %d", len(words), WordsPerPage)
		}
		for i := range words {
			if v := atomic.LoadUint64(&words[i]); v != 0 {
				got = append(got, v)
			}
		}
		return 0
	})
	if !ok {
		t.Fatal("ScanPageWords on a readable page returned false")
	}
	if len(got) != 1 || got[0] != 0xdead {
		t.Errorf("non-zero words = %#v, want [0xdead]", got)
	}
}

func TestScanPageWordsSkipsUnreadable(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, 3*PageSize, true)
	if err := as.Decommit(r.Base()+PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := as.Protect(r.Base()+2*PageSize, PageSize, ProtNone); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2} {
		if r.ScanPageWords(p, false, func([]uint64) int { t.Errorf("fn called for page %d", p); return 0 }) {
			t.Errorf("ScanPageWords(%d) = true for an unreadable page", p)
		}
	}
	if !r.ScanPageWords(0, false, func([]uint64) int { return 0 }) {
		t.Error("ScanPageWords(0) = false for a readable page")
	}
}

func TestScanPageWordsMatchesWordAt(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, PageSize, true)
	rng := uint64(17)
	for w := 0; w < WordsPerPage; w++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		if err := as.Store64(r.Base()+uint64(w)*WordSize, rng); err != nil {
			t.Fatal(err)
		}
	}
	r.ScanPageWords(0, false, func(words []uint64) int {
		for i := range words {
			if got, want := atomic.LoadUint64(&words[i]), r.WordAt(i); got != want {
				t.Fatalf("word %d: bulk %#x, WordAt %#x", i, got, want)
			}
		}
		return 0
	})
}

// BenchmarkScanPage compares the sweep's page-read patterns: word-by-word
// through WordAt (the seed primitive: a backing pointer chase per word,
// filter per word) against one ScanPageWords bulk view per page with the
// 8-wide OR-combined zero skip the real sweep kernel uses. Content mirrors a
// zero-on-free heap: half the pages zero, the rest sparse pointer-like words.
func BenchmarkScanPage(b *testing.B) {
	const pages = 64
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, pages*PageSize, true)
	rng := uint64(5)
	for page := uint64(0); page < pages; page += 2 {
		for off := uint64(0); off < PageSize; off += 64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			_ = as.Store64(r.Base()+page*PageSize+off, HeapBase+(rng>>8)%(1<<30))
		}
	}
	var sink atomic.Uint64
	b.Run("wordat", func(b *testing.B) {
		b.SetBytes(pages * PageSize)
		for i := 0; i < b.N; i++ {
			var n uint64
			for p := 0; p < pages; p++ {
				base := p * WordsPerPage
				r.LockPage(p)
				for w := 0; w < WordsPerPage; w++ {
					if IsHeapAddr(r.WordAt(base + w)) {
						n++
					}
				}
				r.UnlockPage(p)
			}
			sink.Store(n)
		}
	})
	b.Run("bulk", func(b *testing.B) {
		const span = HeapLimit - HeapBase
		b.SetBytes(pages * PageSize)
		for i := 0; i < b.N; i++ {
			var n uint64
			for p := 0; p < pages; p++ {
				r.ScanPageWords(p, false, func(words []uint64) int {
					for w := 0; w+8 <= len(words); w += 8 {
						v0 := atomic.LoadUint64(&words[w])
						v1 := atomic.LoadUint64(&words[w+1])
						v2 := atomic.LoadUint64(&words[w+2])
						v3 := atomic.LoadUint64(&words[w+3])
						v4 := atomic.LoadUint64(&words[w+4])
						v5 := atomic.LoadUint64(&words[w+5])
						v6 := atomic.LoadUint64(&words[w+6])
						v7 := atomic.LoadUint64(&words[w+7])
						if v0|v1|v2|v3|v4|v5|v6|v7 == 0 {
							continue
						}
						for _, v := range [8]uint64{v0, v1, v2, v3, v4, v5, v6, v7} {
							if v-HeapBase < span {
								n++
							}
						}
					}
					return 0
				})
			}
			sink.Store(n)
		}
	})
}
