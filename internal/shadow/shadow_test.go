package shadow

import (
	"sync"
	"testing"
	"testing/quick"

	"minesweeper/internal/mem"
)

// granuleSize is the bytes one bit covers.
const granuleSize = 1 << granuleShift

func TestMarkTest(t *testing.T) {
	b := New()
	addr := mem.HeapBase + 0x1230
	if b.Test(addr) {
		t.Fatal("fresh bitmap has bit set")
	}
	b.Mark(addr)
	if !b.Test(addr) {
		t.Fatal("marked bit not set")
	}
	// Same granule: offsets within the same 16 bytes share a bit.
	if !b.Test(addr + 15 - addr%16 - (addr % 16)) {
		// compute granule start explicitly below instead
		_ = addr
	}
	g := addr &^ 15
	for off := uint64(0); off < 16; off++ {
		if !b.Test(g + off) {
			t.Errorf("offset %d within granule not set", off)
		}
	}
	if b.Test(g + 16) {
		t.Error("next granule unexpectedly set")
	}
	if b.Test(g - 1) {
		t.Error("previous granule unexpectedly set")
	}
}

func TestMarkOutsideRangeIgnored(t *testing.T) {
	b := New()
	b.Mark(0x1000)              // below heap
	b.Mark(mem.HeapLimit)       // at limit
	b.Mark(mem.HeapLimit + 123) // above heap
	if b.PopCount() != 0 {
		t.Errorf("PopCount = %d, want 0", b.PopCount())
	}
	if b.Test(0x1000) {
		t.Error("Test outside range returned true")
	}
}

func TestAnyInRange(t *testing.T) {
	b := New()
	base := mem.HeapBase + 1<<20
	b.Mark(base + 160) // granule 10 of this block

	cases := []struct {
		lo, hi uint64
		want   bool
	}{
		{base, base + 160, false},       // ends exactly before the mark
		{base, base + 161, true},        // includes first byte of marked granule
		{base + 160, base + 176, true},  // exactly the marked granule
		{base + 175, base + 176, true},  // last byte of marked granule
		{base + 176, base + 512, false}, // after
		{base, base + 1<<16, true},      // large covering range
		{base + 200, base + 200, false}, // empty
		{base + 300, base + 200, false}, // inverted
	}
	for _, c := range cases {
		if got := b.AnyInRange(c.lo, c.hi); got != c.want {
			t.Errorf("AnyInRange(%#x, %#x) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

func TestAnyInRangeSkipsUnallocatedChunks(t *testing.T) {
	b := New()
	// Range spanning many chunks with a single mark near the end.
	lo := mem.HeapBase
	hi := mem.HeapBase + 64<<20 // 64 MiB, 16 chunks at 4 MiB coverage
	b.Mark(hi - 16)
	if !b.AnyInRange(lo, hi) {
		t.Error("mark near end of multi-chunk range not found")
	}
	if b.AnyInRange(lo, hi-16) {
		t.Error("found mark outside queried range")
	}
}

func TestClearRange(t *testing.T) {
	b := New()
	base := mem.HeapBase
	for i := uint64(0); i < 64; i++ {
		b.Mark(base + i*16)
	}
	b.ClearRange(base+160, base+320) // granules 10..19
	for i := uint64(0); i < 64; i++ {
		want := i < 10 || i >= 20
		if got := b.Test(base + i*16); got != want {
			t.Errorf("granule %d set = %v, want %v", i, got, want)
		}
	}
}

func TestClearAll(t *testing.T) {
	b := New()
	for i := uint64(0); i < 1000; i++ {
		b.Mark(mem.HeapBase + i*4096)
	}
	if b.PopCount() != 1000 {
		t.Fatalf("PopCount = %d, want 1000", b.PopCount())
	}
	if b.FootprintBytes() == 0 {
		t.Error("FootprintBytes = 0 with chunks allocated")
	}
	b.ClearAll()
	if b.PopCount() != 0 {
		t.Errorf("PopCount after ClearAll = %d, want 0", b.PopCount())
	}
	if b.FootprintBytes() != 0 {
		t.Errorf("FootprintBytes after ClearAll = %d, want 0", b.FootprintBytes())
	}
}

func TestConcurrentMark(t *testing.T) {
	b := New()
	const goroutines = 8
	const marks = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < marks; i++ {
				b.Mark(mem.HeapBase + uint64(g*marks+i)*16)
			}
		}(g)
	}
	wg.Wait()
	if got := b.PopCount(); got != goroutines*marks {
		t.Errorf("PopCount = %d, want %d", got, goroutines*marks)
	}
}

// Property: after marking an arbitrary set of addresses, AnyInRange(lo, hi)
// agrees with a naive per-granule Test scan.
func TestQuickAnyInRangeMatchesNaive(t *testing.T) {
	b := New()
	const window = 1 << 16
	f := func(markOffs []uint16, lo, hi uint16) bool {
		b.ClearRange(mem.HeapBase, mem.HeapBase+window)
		for _, m := range markOffs {
			b.Mark(mem.HeapBase + uint64(m))
		}
		loA := mem.HeapBase + uint64(lo)
		hiA := mem.HeapBase + uint64(hi)
		naive := false
		if hiA > loA {
			for g := loA &^ 15; g < hiA; g += 16 {
				if b.Test(g) {
					naive = true
					break
				}
			}
		}
		return b.AnyInRange(loA, hiA) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMark(b *testing.B) {
	bm := New()
	for i := 0; i < b.N; i++ {
		bm.Mark(mem.HeapBase + uint64(i%(1<<20))*16)
	}
}

func BenchmarkAnyInRangeMiss(b *testing.B) {
	bm := New()
	bm.Mark(mem.HeapBase + 1<<21)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bm.AnyInRange(mem.HeapBase, mem.HeapBase+1<<20) {
			b.Fatal("unexpected hit")
		}
	}
}
