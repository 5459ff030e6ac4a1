package mem

import (
	"fmt"
	"sync"
	"testing"
)

func TestScanRangeVisitsReadableWords(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, 4*PageSize, true)
	base := r.Base()
	for i := uint64(0); i < 8; i++ {
		if err := as.Store64(base+i*8, i+1); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	r.ScanRange(base, 64, func(v uint64) { got = append(got, v) })
	if len(got) != 8 {
		t.Fatalf("visited %d words, want 8", len(got))
	}
	for i, v := range got {
		if v != uint64(i+1) {
			t.Errorf("word %d = %d, want %d", i, v, i+1)
		}
	}
}

func TestScanRangeSkipsNonResident(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, 4*PageSize, true)
	if err := as.Decommit(r.Base()+PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	count := 0
	r.ScanRange(r.Base(), 3*PageSize, func(uint64) { count++ })
	if want := 2 * WordsPerPage; count != want {
		t.Errorf("visited %d words, want %d (one page skipped)", count, want)
	}
}

func TestScanRangeSpansPartialPages(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, 2*PageSize, true)
	// Range straddling the page boundary.
	start := r.Base() + PageSize - 32
	count := 0
	r.ScanRange(start, 64, func(uint64) { count++ })
	if count != 8 {
		t.Errorf("visited %d words, want 8", count)
	}
}

func TestLockPageMutualExclusion(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, PageSize, true)
	var inCritical, maxInCritical int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.LockPage(0)
				mu.Lock()
				inCritical++
				if inCritical > maxInCritical {
					maxInCritical = inCritical
				}
				mu.Unlock()
				mu.Lock()
				inCritical--
				mu.Unlock()
				r.UnlockPage(0)
			}
		}()
	}
	wg.Wait()
	if maxInCritical > 1 {
		t.Errorf("LockPage admitted %d holders at once", maxInCritical)
	}
}

func TestBackingDroppedAndRestored(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, 2*PageSize, true)
	if r.wordSlice() == nil {
		t.Fatal("committed region has no backing")
	}
	if err := as.Decommit(r.Base(), 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if r.wordSlice() != nil {
		t.Error("fully decommitted region retains backing")
	}
	// WordAt on a backing-less region reads zero (never panics).
	if v := r.WordAt(0); v != 0 {
		t.Errorf("WordAt on dropped backing = %d", v)
	}
	if err := as.Commit(r.Base(), PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if r.wordSlice() == nil {
		t.Fatal("commit did not restore backing")
	}
	if err := as.Store64(r.Base(), 5); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.Load64(r.Base()); v != 5 {
		t.Errorf("read back %d, want 5", v)
	}
}

func TestBackingPoolReuseIsZeroed(t *testing.T) {
	as := NewAddressSpace()
	a, _ := as.Map(KindHeap, PageSize, true)
	if err := as.Store64(a.Base(), 0xAA); err != nil {
		t.Fatal(err)
	}
	// Drop a's backing into the pool, then map a new same-size region:
	// if the pool hands the slice back it must read zero.
	if err := as.Decommit(a.Base(), PageSize); err != nil {
		t.Fatal(err)
	}
	b, _ := as.Map(KindHeap, PageSize, true)
	for off := uint64(0); off < PageSize; off += 8 {
		if v, _ := as.Load64(b.Base() + off); v != 0 {
			t.Fatalf("recycled backing reads %#x at +%d", v, off)
		}
	}
}

func TestRadixLookupManyRegions(t *testing.T) {
	as := NewAddressSpace()
	var regions []*Region
	for i := 0; i < 500; i++ {
		r, err := as.Map(KindHeap, PageSize*uint64(1+i%7), true)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
	}
	for _, r := range regions {
		if got := as.Lookup(r.Base()); got != r {
			t.Fatalf("Lookup(base) = %v, want %v", got, r)
		}
		if got := as.Lookup(r.End() - 1); got != r {
			t.Fatalf("Lookup(end-1) wrong region")
		}
		if got := as.Lookup(r.End()); got == r {
			t.Fatalf("Lookup(end) returned the region itself")
		}
	}
	// Unmapping clears radix entries.
	victim := regions[250]
	if err := as.Unmap(victim); err != nil {
		t.Fatal(err)
	}
	if as.Lookup(victim.Base()) != nil {
		t.Error("Lookup found unmapped region")
	}
}

// TestRegionsListsLiveSet unmaps regions from the middle, the front and the
// back of the region list, interleaved with new mappings, and requires
// Regions to list exactly the live set after every step.
func TestRegionsListsLiveSet(t *testing.T) {
	as := NewAddressSpace()
	live := make(map[*Region]bool)
	mapOne := func(kind Kind) *Region {
		r, err := as.Map(kind, PageSize, true)
		if err != nil {
			t.Fatal(err)
		}
		live[r] = true
		return r
	}
	check := func(step string) {
		t.Helper()
		got := as.Regions(nil)
		if len(got) != len(live) || as.Stats().Regions != len(live) {
			t.Fatalf("%s: Regions lists %d, Stats %d, want %d", step, len(got), as.Stats().Regions, len(live))
		}
		for _, r := range got {
			if !live[r] {
				t.Fatalf("%s: Regions lists %#x, which is not live", step, r.Base())
			}
		}
	}
	var regs []*Region
	for i := 0; i < 10; i++ {
		regs = append(regs, mapOne([]Kind{KindHeap, KindStack, KindGlobals}[i%3]))
	}
	check("mapped")
	for _, i := range []int{5, 0, 9, 4} {
		if err := as.Unmap(regs[i]); err != nil {
			t.Fatal(err)
		}
		delete(live, regs[i])
		check(fmt.Sprintf("unmapped %d", i))
	}
	if err := as.Unmap(regs[5]); err == nil {
		t.Fatal("second Unmap of a region succeeded")
	}
	mapOne(KindHeap)
	check("remapped")
	for r := range live {
		if err := as.Unmap(r); err != nil {
			t.Fatal(err)
		}
		delete(live, r)
		check("drained")
	}
	// Regions overwrites dst in place when it has room.
	dst := make([]*Region, 3, 8)
	mapOne(KindHeap)
	if got := as.Regions(dst); len(got) != 1 || &got[0] != &dst[0] {
		t.Fatalf("Regions(dst) = %d regions, reused dst %v", len(got), len(got) > 0 && &got[0] == &dst[0])
	}
}

// TestRegionsConcurrentMapUnmap maps and unmaps from several goroutines
// while another lists the regions, as jemalloc grows and drops extents on
// mutators while a sweep collects its chunks. Run under -race (make
// race-hot). Every snapshot must hold only whole regions, and the list must
// end holding exactly the regions left mapped.
func TestRegionsConcurrentMapUnmap(t *testing.T) {
	as := NewAddressSpace()
	const workers, rounds = 4, 200
	kept := make([][]*Region, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r, err := as.Map(KindHeap, PageSize, false)
				if err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					kept[w] = append(kept[w], r)
				} else if err := as.Unmap(r); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var dst []*Region
	for listing := true; listing; {
		select {
		case <-done:
			listing = false
		default:
		}
		dst = as.Regions(dst)
		for _, r := range dst {
			if r == nil || r.Size() != PageSize {
				t.Fatalf("Regions listed %v", r)
			}
		}
	}
	want := make(map[*Region]bool)
	for _, rs := range kept {
		for _, r := range rs {
			want[r] = true
		}
	}
	got := as.Regions(nil)
	if len(got) != len(want) {
		t.Fatalf("Regions lists %d, want %d", len(got), len(want))
	}
	for _, r := range got {
		if !want[r] {
			t.Fatalf("Regions lists unmapped %#x", r.Base())
		}
	}
}

func BenchmarkRadixLookup(b *testing.B) {
	as := NewAddressSpace()
	var bases []uint64
	for i := 0; i < 2000; i++ {
		r, _ := as.Map(KindHeap, 4*PageSize, true)
		bases = append(bases, r.Base())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if as.Lookup(bases[i%len(bases)]+123*8) == nil {
			b.Fatal("lookup failed")
		}
	}
}
