package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestMapBasic(t *testing.T) {
	as := NewAddressSpace()
	r, err := as.Map(KindHeap, 3*PageSize, true)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if r.Base() < HeapBase || r.End() > HeapLimit {
		t.Errorf("heap region outside heap area: [%#x,%#x)", r.Base(), r.End())
	}
	if r.Size() != 3*PageSize {
		t.Errorf("Size = %d, want %d", r.Size(), 3*PageSize)
	}
	if got := as.RSS(); got != 3*PageSize {
		t.Errorf("RSS = %d, want %d", got, 3*PageSize)
	}
	if r.Kind() != KindHeap {
		t.Errorf("Kind = %v, want heap", r.Kind())
	}
}

func TestMapRoundsUpToPage(t *testing.T) {
	as := NewAddressSpace()
	r, err := as.Map(KindHeap, 100, true)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if r.Size() != PageSize {
		t.Errorf("Size = %d, want %d", r.Size(), PageSize)
	}
}

func TestMapZeroSize(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Map(KindHeap, 0, true); err == nil {
		t.Fatal("Map(0) succeeded, want error")
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, PageSize, true)
	addr := r.Base() + 64
	if err := as.Store64(addr, 0xdeadbeefcafef00d); err != nil {
		t.Fatalf("Store64: %v", err)
	}
	v, err := as.Load64(addr)
	if err != nil {
		t.Fatalf("Load64: %v", err)
	}
	if v != 0xdeadbeefcafef00d {
		t.Errorf("Load64 = %#x, want 0xdeadbeefcafef00d", v)
	}
}

func TestFreshMemoryIsZero(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, PageSize, true)
	for off := uint64(0); off < PageSize; off += WordSize {
		v, err := as.Load64(r.Base() + off)
		if err != nil {
			t.Fatalf("Load64(+%d): %v", off, err)
		}
		if v != 0 {
			t.Fatalf("fresh word at +%d = %#x, want 0", off, v)
		}
	}
}

func faultCause(t *testing.T, err error) FaultCause {
	t.Helper()
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("error %v is not a *Fault", err)
	}
	return f.Cause
}

func TestUnmappedAccessFaults(t *testing.T) {
	as := NewAddressSpace()
	_, err := as.Load64(HeapBase + 4096)
	if err == nil {
		t.Fatal("load of unmapped address succeeded")
	}
	if c := faultCause(t, err); c != CauseUnmapped {
		t.Errorf("cause = %v, want unmapped", c)
	}
	if as.Stats().Faults != 1 {
		t.Errorf("Faults = %d, want 1", as.Stats().Faults)
	}
}

func TestMisalignedAccessFaults(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, PageSize, true)
	_, err := as.Load64(r.Base() + 3)
	if c := faultCause(t, err); c != CauseMisaligned {
		t.Errorf("cause = %v, want misaligned", c)
	}
	err = as.Store64(r.Base()+5, 1)
	if c := faultCause(t, err); c != CauseMisaligned {
		t.Errorf("store cause = %v, want misaligned", c)
	}
}

func TestGuardGapBetweenRegions(t *testing.T) {
	as := NewAddressSpace()
	a, _ := as.Map(KindHeap, PageSize, true)
	b, _ := as.Map(KindHeap, PageSize, true)
	if b.Base() < a.End()+guardGap {
		t.Errorf("no guard gap: a ends %#x, b starts %#x", a.End(), b.Base())
	}
	if _, err := as.Load64(a.End()); err == nil {
		t.Error("load in guard gap succeeded")
	}
}

func TestDecommitFaultsAndZeroes(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, 2*PageSize, true)
	addr := r.Base()
	if err := as.Store64(addr, 42); err != nil {
		t.Fatal(err)
	}
	if err := as.Decommit(addr, PageSize); err != nil {
		t.Fatalf("Decommit: %v", err)
	}
	if _, err := as.Load64(addr); err == nil {
		t.Fatal("load of decommitted page succeeded")
	} else if c := faultCause(t, err); c != CauseNotResident {
		t.Errorf("cause = %v, want not-resident", c)
	}
	if got := as.RSS(); got != PageSize {
		t.Errorf("RSS after decommit = %d, want %d", got, PageSize)
	}
	// Second page untouched.
	if _, err := as.Load64(addr + PageSize); err != nil {
		t.Errorf("second page faulted: %v", err)
	}
	// Recommit: reads back as zero, not 42.
	if err := as.Commit(addr, PageSize, ProtRW); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	v, err := as.Load64(addr)
	if err != nil {
		t.Fatalf("Load64 after recommit: %v", err)
	}
	if v != 0 {
		t.Errorf("recommitted page reads %#x, want 0", v)
	}
	if got := as.RSS(); got != 2*PageSize {
		t.Errorf("RSS after recommit = %d, want %d", got, 2*PageSize)
	}
}

// TestDroppedBackingPooledZero: a region's backing goes back to the frame
// pool all zero, whether the whole region is decommitted or unmapped, so the
// pool can hand it out again without clearing it.
func TestDroppedBackingPooledZero(t *testing.T) {
	drops := []struct {
		name string
		drop func(as *AddressSpace, r *Region) error
	}{
		{"decommit", func(as *AddressSpace, r *Region) error { return as.Decommit(r.Base(), r.Size()) }},
		{"unmap", func(as *AddressSpace, r *Region) error { return as.Unmap(r) }},
	}
	for _, d := range drops {
		t.Run(d.name, func(t *testing.T) {
			as := NewAddressSpace()
			r, _ := as.Map(KindHeap, 2*PageSize, true)
			if err := as.Store64(r.Base()+PageSize+8, 42); err != nil {
				t.Fatal(err)
			}
			if err := d.drop(as, r); err != nil {
				t.Fatal(err)
			}
			pool := as.backing[int(r.Size()/WordSize)]
			if len(pool) != 1 {
				t.Fatalf("pool holds %d frames, want 1", len(pool))
			}
			for i, w := range pool[0] {
				if w != 0 {
					t.Fatalf("pooled frame word %d = %d, want 0", i, w)
				}
			}
		})
	}
}

func TestCommitIdempotentRSS(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, PageSize, true)
	if err := as.Commit(r.Base(), PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if got := as.RSS(); got != PageSize {
		t.Errorf("RSS after double commit = %d, want %d", got, PageSize)
	}
}

func TestProtectReadOnly(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, PageSize, true)
	addr := r.Base()
	if err := as.Store64(addr, 7); err != nil {
		t.Fatal(err)
	}
	if err := as.Protect(addr, PageSize, ProtRead); err != nil {
		t.Fatalf("Protect: %v", err)
	}
	if err := as.Store64(addr, 8); err == nil {
		t.Fatal("store to read-only page succeeded")
	} else if c := faultCause(t, err); c != CauseProtection {
		t.Errorf("cause = %v, want protection", c)
	}
	v, err := as.Load64(addr)
	if err != nil || v != 7 {
		t.Errorf("Load64 = %v, %v; want 7, nil", v, err)
	}
	// ProtNone blocks loads too, but keeps contents for later restore.
	if err := as.Protect(addr, PageSize, ProtNone); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Load64(addr); err == nil {
		t.Fatal("load of PROT_NONE page succeeded")
	}
	if err := as.Protect(addr, PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.Load64(addr); v != 7 {
		t.Errorf("contents lost across protect: %d, want 7", v)
	}
}

func TestUncommittedMapFaultsUntilCommit(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, 2*PageSize, false)
	if as.RSS() != 0 {
		t.Errorf("RSS of uncommitted map = %d, want 0", as.RSS())
	}
	if _, err := as.Load64(r.Base()); err == nil {
		t.Fatal("load of uncommitted page succeeded")
	}
	if err := as.Commit(r.Base(), PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Load64(r.Base()); err != nil {
		t.Fatalf("load after commit: %v", err)
	}
	if as.RSS() != PageSize {
		t.Errorf("RSS = %d, want %d", as.RSS(), PageSize)
	}
}

func TestUnmap(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, PageSize, true)
	base := r.Base()
	if err := as.Unmap(r); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	if as.RSS() != 0 {
		t.Errorf("RSS after unmap = %d, want 0", as.RSS())
	}
	if _, err := as.Load64(base); err == nil {
		t.Fatal("load of unmapped region succeeded")
	}
	if err := as.Unmap(r); err == nil {
		t.Fatal("double unmap succeeded")
	}
}

// TestUnmapDropsDirtyPages holds the dirty-page count exact across Unmap:
// the dirty bits of an unmapped region leave the count with it.
func TestUnmapDropsDirtyPages(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, 2*PageSize, true)
	if err := as.Store64(r.Base(), 1); err != nil {
		t.Fatal(err)
	}
	if n := as.DirtyPageCount(); n != 1 {
		t.Fatalf("dirty pages before Unmap = %d, want 1", n)
	}
	if err := as.Unmap(r); err != nil {
		t.Fatal(err)
	}
	if n := as.DirtyPageCount(); n != 0 {
		t.Errorf("dirty pages after Unmap = %d, want 0", n)
	}
}

func TestSoftDirtyTracking(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, 4*PageSize, true)
	as.ClearSoftDirty()
	for i := 0; i < 4; i++ {
		if r.PageDirty(i) {
			t.Fatalf("page %d dirty after clear", i)
		}
	}
	if err := as.Store64(r.Base()+2*PageSize+8, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		want := i == 2
		if r.PageDirty(i) != want {
			t.Errorf("page %d dirty = %v, want %v", i, r.PageDirty(i), want)
		}
	}
	as.ClearSoftDirty()
	if r.PageDirty(2) {
		t.Error("page 2 still dirty after clear")
	}
}

func TestLookupBoundaries(t *testing.T) {
	as := NewAddressSpace()
	a, _ := as.Map(KindHeap, PageSize, true)
	b, _ := as.Map(KindHeap, PageSize, true)
	cases := []struct {
		addr uint64
		want *Region
	}{
		{a.Base(), a},
		{a.End() - 1, a},
		{a.End(), nil}, // guard gap
		{b.Base(), b},
		{b.Base() - 1, nil},
		{b.End() - 1, b},
		{b.End(), nil},
		{HeapBase - 1, nil},
	}
	for _, c := range cases {
		if got := as.Lookup(c.addr); got != c.want {
			t.Errorf("Lookup(%#x) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestKindsSeparateAreas(t *testing.T) {
	as := NewAddressSpace()
	h, _ := as.Map(KindHeap, PageSize, true)
	s, _ := as.Map(KindStack, PageSize, true)
	g, _ := as.Map(KindGlobals, PageSize, true)
	if !IsHeapAddr(h.Base()) {
		t.Error("heap region not in heap area")
	}
	if IsHeapAddr(s.Base()) || IsHeapAddr(g.Base()) {
		t.Error("stack/globals region classified as heap")
	}
	if s.Base() < StackBase || s.End() > StackLimit {
		t.Error("stack region outside stack area")
	}
	if g.Base() < GlobalsBase || g.End() > GlobalsLimit {
		t.Error("globals region outside globals area")
	}
}

func TestZeroRange(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, PageSize, true)
	for off := uint64(0); off < 256; off += 8 {
		if err := as.Store64(r.Base()+off, ^uint64(0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.Zero(r.Base()+64, 128); err != nil {
		t.Fatalf("Zero: %v", err)
	}
	for off := uint64(0); off < 256; off += 8 {
		v, _ := as.Load64(r.Base() + off)
		want := ^uint64(0)
		if off >= 64 && off < 192 {
			want = 0
		}
		if v != want {
			t.Errorf("word at +%d = %#x, want %#x", off, v, want)
		}
	}
}

func TestWordAtMatchesLoad(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, PageSize, true)
	if err := as.Store64(r.Base()+16, 0x1234); err != nil {
		t.Fatal(err)
	}
	if got := r.WordAt(2); got != 0x1234 {
		t.Errorf("WordAt(2) = %#x, want 0x1234", got)
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{Addr: 0x1000, Write: true, Cause: CauseProtection}
	want := "mem: fault: store at 0x1000 (protection)"
	if f.Error() != want {
		t.Errorf("Error() = %q, want %q", f.Error(), want)
	}
}

func TestProtString(t *testing.T) {
	cases := map[Prot]string{ProtNone: "--", ProtRead: "r-", ProtWrite: "-w", ProtRW: "rw"}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("Prot(%d).String() = %q, want %q", p, p.String(), want)
		}
	}
}

func TestPageHelpers(t *testing.T) {
	if PageFloor(4097) != 4096 || PageFloor(4096) != 4096 || PageFloor(4095) != 0 {
		t.Error("PageFloor wrong")
	}
	if PageCeil(4097) != 8192 || PageCeil(4096) != 4096 || PageCeil(1) != 4096 {
		t.Error("PageCeil wrong")
	}
}

// Property: a store followed by a load at any word-aligned in-bounds offset
// round-trips the value exactly.
func TestQuickStoreLoadRoundTrip(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, 16*PageSize, true)
	f := func(off uint32, v uint64) bool {
		addr := r.Base() + uint64(off)%r.Size()
		addr &^= WordSize - 1
		if err := as.Store64(addr, v); err != nil {
			return false
		}
		got, err := as.Load64(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RSS always equals PageSize times the number of resident pages,
// under any interleaving of commit/decommit operations.
func TestQuickRSSInvariant(t *testing.T) {
	as := NewAddressSpace()
	const pages = 32
	r, _ := as.Map(KindHeap, pages*PageSize, true)
	f := func(ops []uint16) bool {
		for _, op := range ops {
			page := uint64(op%pages) * PageSize
			if op&0x8000 != 0 {
				if err := as.Commit(r.Base()+page, PageSize, ProtRW); err != nil {
					return false
				}
			} else {
				if err := as.Decommit(r.Base()+page, PageSize); err != nil {
					return false
				}
			}
		}
		resident := 0
		for i := 0; i < r.PageCount(); i++ {
			if r.PageResident(i) {
				resident++
			}
		}
		return as.RSS() == uint64(resident*PageSize)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConcurrentStoreSweepRaceFree(t *testing.T) {
	// A mutator hammering stores while a "sweeper" reads every word must be
	// race-free (this test is meaningful under -race).
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, 8*PageSize, true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			addr := r.Base() + uint64(i*8)%r.Size()
			if err := as.Store64(addr, uint64(i)); err != nil {
				t.Errorf("Store64: %v", err)
				return
			}
		}
	}()
	for pass := 0; pass < 10; pass++ {
		for i := 0; i < r.WordCount(); i++ {
			_ = r.WordAt(i)
		}
	}
	<-done
}

func BenchmarkStore64(b *testing.B) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, 256*PageSize, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = as.Store64(r.Base()+uint64(i*8)%r.Size(), uint64(i))
	}
}

// BenchmarkStore64Clean is BenchmarkStore64 with the page's dirty bit taken
// after every store, so each store pays the clean→dirty postStore transition
// (and its summary and accounting) and each take pays takeDirty. Plain
// BenchmarkStore64 reaches that path once per page per run.
func BenchmarkStore64Clean(b *testing.B) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, 256*PageSize, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := r.Base() + uint64(i*8)%r.Size()
		_ = as.Store64(addr, uint64(i))
		r.TestClearPageDirty(r.PageIndex(addr))
	}
}

func BenchmarkLoad64(b *testing.B) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, 256*PageSize, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = as.Load64(r.Base() + uint64(i*8)%r.Size())
	}
}

func BenchmarkSweepRegion(b *testing.B) {
	as := NewAddressSpace()
	r, _ := as.Map(KindHeap, 1024*PageSize, true)
	b.SetBytes(int64(r.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var marks uint64
		for w := 0; w < r.WordCount(); w++ {
			if IsHeapAddr(r.WordAt(w)) {
				marks++
			}
		}
		_ = marks
	}
}
