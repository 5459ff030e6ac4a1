package shadow

import (
	"sync"
	"testing"

	"minesweeper/internal/mem"
)

// Edge cases of the two-level chunk directory: the first and last granule
// of the range, ranges across a leaf boundary, ranges over an absent leaf,
// and concurrent first marks racing to install one leaf.

// leafCover returns the bytes of address space one directory leaf covers.
func leafCover(b *Bitmap) uint64 { return chunkCover(b) << leafShift }

// TestDirectoryEdges runs Mark, Test, AnyInRange and ClearRange on the first
// granule of the range, the last granule below its limit, and the two
// granules either side of a leaf boundary.
func TestDirectoryEdges(t *testing.T) {
	b := newTestBitmap(t)
	g := b.GranuleSize()
	boundary := mem.HeapBase + 3*leafCover(b)
	for _, tc := range []struct {
		name string
		addr uint64
	}{
		{"HeapBase", mem.HeapBase},
		{"last granule below HeapLimit", mem.HeapLimit - g},
		{"last granule of a leaf", boundary - g},
		{"first granule of the next leaf", boundary},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b.ClearAll()
			b.Mark(tc.addr + g - 1) // any byte of the granule marks it
			if !b.Test(tc.addr) || !b.Test(tc.addr+g-1) {
				t.Fatal("mark not visible across its granule")
			}
			if tc.addr > mem.HeapBase && b.Test(tc.addr-1) {
				t.Error("granule below marked")
			}
			if tc.addr+g < mem.HeapLimit && b.Test(tc.addr+g) {
				t.Error("granule above marked")
			}
			if !b.AnyInRange(tc.addr, tc.addr+g) || !b.AnyInRange(tc.addr-g, tc.addr+2*g) {
				t.Error("AnyInRange missed the mark")
			}
			if b.AnyInRange(tc.addr+g, tc.addr+2*g) || b.AnyInRange(tc.addr-g, tc.addr) {
				t.Error("AnyInRange hit a clean neighbour")
			}
			b.ClearRange(tc.addr, tc.addr+g)
			if b.Test(tc.addr) || b.AnyInRange(mem.HeapBase, mem.HeapLimit) {
				t.Error("ClearRange left the mark set")
			}
		})
	}
}

// TestDirectoryMarkAcrossLeafBoundary marks a run of granules straddling a
// leaf boundary and clears a window across it: the bits on each side land in
// different leaves, and both are installed.
func TestDirectoryMarkAcrossLeafBoundary(t *testing.T) {
	b := newTestBitmap(t)
	g := b.GranuleSize()
	boundary := mem.HeapBase + leafCover(b)
	for a := boundary - 8*g; a < boundary+8*g; a += g {
		b.Mark(a)
	}
	if b.root[0].Load() == nil || b.root[1].Load() == nil {
		t.Fatal("a leaf either side of the boundary should be installed")
	}
	if got := b.PopCount(); got != 16 {
		t.Fatalf("PopCount = %d, want 16", got)
	}
	if got := b.FootprintBytes(); got != 2*wordsPerChunk*8 {
		t.Fatalf("FootprintBytes = %d, want two chunks", got)
	}
	b.ClearRange(boundary-2*g, boundary+2*g)
	for a := boundary - 8*g; a < boundary+8*g; a += g {
		want := a < boundary-2*g || a >= boundary+2*g
		if got := b.Test(a); got != want {
			t.Errorf("granule at %#x set = %v, want %v", a, got, want)
		}
	}
}

// TestDirectoryRangeOverAbsentLeaf checks ranges spanning a leaf that was
// never installed: AnyInRange sees only the marks either side, ClearRange
// clears them, and neither installs the absent leaf.
func TestDirectoryRangeOverAbsentLeaf(t *testing.T) {
	b := newTestBitmap(t)
	g := b.GranuleSize()
	lc := leafCover(b)
	lastOfLeaf0 := mem.HeapBase + lc - g
	firstOfLeaf2 := mem.HeapBase + 2*lc
	b.Mark(lastOfLeaf0)
	b.Mark(firstOfLeaf2)

	if b.AnyInRange(lastOfLeaf0+g, firstOfLeaf2) {
		t.Error("AnyInRange over the absent leaf alone hit")
	}
	if !b.AnyInRange(lastOfLeaf0, firstOfLeaf2) || !b.AnyInRange(lastOfLeaf0+g, firstOfLeaf2+g) {
		t.Error("AnyInRange across the absent leaf missed a mark")
	}
	b.ClearRange(lastOfLeaf0, firstOfLeaf2+g)
	if b.Test(lastOfLeaf0) || b.Test(firstOfLeaf2) || b.PopCount() != 0 {
		t.Error("ClearRange across the absent leaf left a mark")
	}
	if b.root[1].Load() != nil {
		t.Error("a read or clear installed the absent leaf")
	}
}

// TestDirectoryClearAllKeepsLeaves checks ClearAll drops every chunk in
// every installed leaf, so the footprint and the popcount are both 0, while
// the leaves stay installed for the next sweep.
func TestDirectoryClearAllKeepsLeaves(t *testing.T) {
	b := newTestBitmap(t)
	addrs := []uint64{mem.HeapBase, mem.HeapBase + 5*leafCover(b) + 12345, mem.HeapLimit - 1}
	for _, a := range addrs {
		b.Mark(a)
	}
	if b.FootprintBytes() != 3*wordsPerChunk*8 || b.PopCount() != 3 {
		t.Fatalf("before ClearAll: footprint %d, popcount %d", b.FootprintBytes(), b.PopCount())
	}
	b.ClearAll()
	if b.FootprintBytes() != 0 || b.PopCount() != 0 {
		t.Fatalf("after ClearAll: footprint %d, popcount %d, want 0 and 0", b.FootprintBytes(), b.PopCount())
	}
	for _, a := range addrs {
		if b.Test(a) {
			t.Errorf("%#x still marked after ClearAll", a)
		}
		ci := b.granule(a) >> bitsPerChunkShift
		if b.root[ci>>leafShift].Load() == nil {
			t.Errorf("leaf of %#x dropped by ClearAll", a)
		}
	}
}

// TestDirectoryConcurrentFirstMark has two goroutines make the first marks
// of two different chunks in the same absent leaf at once. Both race to
// install the leaf; one CAS wins, and neither mark may be lost to a leaf the
// loser installed.
func TestDirectoryConcurrentFirstMark(t *testing.T) {
	for round := 0; round < 200; round++ {
		b := newTestBitmap(t)
		leafBase := mem.HeapBase + 7*leafCover(b)
		addrs := [2]uint64{leafBase + 3*chunkCover(b), leafBase + 900*chunkCover(b) + 16}
		var start, done sync.WaitGroup
		start.Add(1)
		for _, a := range addrs {
			done.Add(1)
			go func(a uint64) {
				defer done.Done()
				start.Wait()
				b.Mark(a)
			}(a)
		}
		start.Done()
		done.Wait()
		for _, a := range addrs {
			if !b.Test(a) {
				t.Fatalf("round %d: first mark at %#x lost", round, a)
			}
		}
		if b.FootprintBytes() != 2*wordsPerChunk*8 || b.PopCount() != 2 {
			t.Fatalf("round %d: footprint %d, popcount %d", round, b.FootprintBytes(), b.PopCount())
		}
	}
}
