package mem

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// requireMapped fails unless every page of r, including its first and last
// byte, resolves to r, and the guard pages either side resolve to nil.
func requireMapped(t *testing.T, as *AddressSpace, r *Region) {
	t.Helper()
	for addr := r.Base(); addr < r.End(); addr += PageSize {
		if got := as.Lookup(addr); got != r {
			t.Fatalf("Lookup(%#x) = %v, want region at %#x", addr, got, r.Base())
		}
	}
	if got := as.Lookup(r.End() - 1); got != r {
		t.Fatalf("Lookup(last byte %#x) = %v, want region at %#x", r.End()-1, got, r.Base())
	}
	if got := as.Lookup(r.End()); got != nil {
		t.Fatalf("Lookup(guard page %#x) = region at %#x, want nil", r.End(), got.Base())
	}
	if r.Base() >= PageSize {
		if got := as.Lookup(r.Base() - 1); got != nil {
			t.Fatalf("Lookup(%#x) below the region = region at %#x, want nil", r.Base()-1, got.Base())
		}
	}
}

// requireUnmapped fails unless no page of [base, end) resolves.
func requireUnmapped(t *testing.T, as *AddressSpace, base, end uint64) {
	t.Helper()
	for addr := base; addr < end; addr += PageSize {
		if got := as.Lookup(addr); got != nil {
			t.Fatalf("Lookup(%#x) after Unmap = region at %#x, want nil", addr, got.Base())
		}
	}
}

// TestRadixAreaBases maps, looks up and unmaps the first region of each
// area: each lands at its area's base, in a top-table slot of its own.
func TestRadixAreaBases(t *testing.T) {
	as := NewAddressSpace()
	for _, tc := range []struct {
		kind Kind
		base uint64
	}{{KindGlobals, GlobalsBase}, {KindHeap, HeapBase}, {KindStack, StackBase}} {
		r, err := as.Map(tc.kind, 3*PageSize, true)
		if err != nil {
			t.Fatal(err)
		}
		if r.Base() != tc.base {
			t.Fatalf("%v region at %#x, want %#x", tc.kind, r.Base(), tc.base)
		}
		requireMapped(t, as, r)
		if err := as.Unmap(r); err != nil {
			t.Fatal(err)
		}
		requireUnmapped(t, as, r.Base(), r.End())
	}
}

// TestRadixAcrossBoundaries maps regions that straddle a leaf boundary
// (256 MiB) and a mid-table boundary (128 GiB), so one region's pages live
// in two leaves, or in two mid tables.
func TestRadixAcrossBoundaries(t *testing.T) {
	for _, tc := range []struct {
		name  string
		align uint64
	}{
		{"leaf", 1 << radixLeafShift},
		{"mid table", 1 << radixMidShift},
	} {
		t.Run(tc.name, func(t *testing.T) {
			as := NewAddressSpace()
			boundary := HeapBase + tc.align
			as.nextHeap = boundary - 2*PageSize
			r, err := as.Map(KindHeap, 4*PageSize, false)
			if err != nil {
				t.Fatal(err)
			}
			if r.Base() >= boundary || r.End() <= boundary {
				t.Fatalf("region [%#x, %#x) does not straddle %#x", r.Base(), r.End(), boundary)
			}
			requireMapped(t, as, r)
			if err := as.Unmap(r); err != nil {
				t.Fatal(err)
			}
			requireUnmapped(t, as, r.Base(), r.End())
		})
	}
}

// TestRadixLookupAbsent checks Lookup returns nil, without installing
// anything, above the 47-bit layout and in every kind of absent subtree: a
// top slot never installed, a mid table with no leaf for the address, and a
// leaf whose page slot is empty.
func TestRadixLookupAbsent(t *testing.T) {
	as := NewAddressSpace()
	r, err := as.Map(KindHeap, PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []uint64{
		1 << 47,
		1<<47 + HeapBase,
		^uint64(0),
		0,
		0x3000_0000_0000,             // top slot never installed
		HeapBase + 1<<radixLeafShift, // mid table installed, leaf absent
		r.End() + PageSize,           // leaf installed, page slot empty
	} {
		if got := as.Lookup(addr); got != nil {
			t.Errorf("Lookup(%#x) = region at %#x, want nil", addr, got.Base())
		}
	}
	for top := range as.radix {
		if mid := as.radix[top].Load(); mid != nil && uint64(top) != HeapBase>>radixMidShift {
			t.Errorf("top slot %d installed; only the heap's should be", top)
		}
	}
}

// TestNewAddressSpaceAllocatesLittle pins the build cost of an address
// space at its top table (8 KiB): mid tables and leaves are installed only
// when something is mapped in their range. The Go collector is held off so
// TotalAlloc counts exactly the construction; the minimum of a few builds
// discards allocations made meanwhile by goroutines of other tests.
func TestNewAddressSpaceAllocatesLittle(t *testing.T) {
	const limit = 64 << 10
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		as := NewAddressSpace()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(as)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("NewAddressSpace allocated %d bytes", best)
	if best >= limit {
		t.Fatalf("NewAddressSpace allocated %d bytes, want < %d", best, limit)
	}
}

// TestRegionOwnerThroughLookup: a region's owner is nil until SetOwner, and
// once published it is what a Lookup of any of the region's pages leads to.
func TestRegionOwnerThroughLookup(t *testing.T) {
	as := NewAddressSpace()
	r, err := as.Map(KindHeap, 3*PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := as.Lookup(r.Base()).Owner(); got != nil {
		t.Fatalf("Owner before SetOwner = %v, want nil", got)
	}
	owner := new(int)
	r.SetOwner(owner)
	for _, addr := range []uint64{r.Base(), r.Base() + PageSize + 8, r.End() - 1} {
		if got := as.Lookup(addr).Owner(); got != owner {
			t.Errorf("Lookup(%#x).Owner() = %v, want %p", addr, got, owner)
		}
	}
}
