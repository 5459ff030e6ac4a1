package shadow

import (
	"testing"

	"minesweeper/internal/mem"
)

// Cross-chunk-boundary edge cases for AnyInRange and ClearRange: ranges that
// straddle two chunks, ranges touching base/limit, and empty ranges. A chunk
// covers chunkCover(b) bytes, so addresses just either side of that boundary
// land in different lazily-allocated chunks.

func TestAnyInRangeAcrossChunkBoundary(t *testing.T) {
	b := newTestBitmap(t)
	boundary := mem.HeapBase + chunkCover(b)
	g := b.GranuleSize()

	// One mark on the last granule of chunk 0, one on the first of chunk 1.
	lastC0 := boundary - g
	firstC1 := boundary
	b.Mark(lastC0)
	b.Mark(firstC1)

	cases := []struct {
		name   string
		lo, hi uint64
		want   bool
	}{
		{"straddles both marks", boundary - 2*g, boundary + 2*g, true},
		{"ends exactly at boundary (hits last of c0)", boundary - g, boundary, true},
		{"starts exactly at boundary (hits first of c1)", boundary, boundary + g, true},
		{"straddle between the marks only", lastC0 + 4, firstC1 + 4, true},
		{"clean range inside chunk 0", boundary - 64*g, boundary - 2*g, false},
		{"clean range inside chunk 1", boundary + 2*g, boundary + 64*g, false},
		{"clean straddle of an untouched boundary", mem.HeapBase + 5*chunkCover(b) - g, mem.HeapBase + 5*chunkCover(b) + g, false},
		{"empty range (hi == lo)", boundary, boundary, false},
		{"inverted range (hi < lo)", boundary + g, boundary - g, false},
		{"clamped below base", mem.HeapBase - 100, mem.HeapBase + g, false},
		{"clamped above limit", mem.HeapLimit - g, mem.HeapLimit + 100, false},
		{"entirely below base", 0, mem.HeapBase, false},
		{"entirely above limit", mem.HeapLimit, mem.HeapLimit + 100, false},
	}
	for _, tc := range cases {
		if got := b.AnyInRange(tc.lo, tc.hi); got != tc.want {
			t.Errorf("%s: AnyInRange(%#x, %#x) = %v, want %v", tc.name, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestAnyInRangeTouchingBaseAndLimit(t *testing.T) {
	b := newTestBitmap(t)
	g := b.GranuleSize()
	b.Mark(mem.HeapBase)      // very first granule
	b.Mark(mem.HeapLimit - g) // very last granule

	if !b.AnyInRange(mem.HeapBase, mem.HeapBase+g) {
		t.Error("range at base missed the first granule")
	}
	if !b.AnyInRange(mem.HeapLimit-g, mem.HeapLimit) {
		t.Error("range at limit missed the last granule")
	}
	// Over-wide range clamps to [base, limit) and still finds both.
	if !b.AnyInRange(0, ^uint64(0)) {
		t.Error("clamped full-space range found nothing")
	}
	b.ClearRange(mem.HeapBase, mem.HeapBase+g)
	b.ClearRange(mem.HeapLimit-g, mem.HeapLimit)
	if b.AnyInRange(0, ^uint64(0)) {
		t.Error("clearing the base/limit granules left bits behind")
	}
}

func TestClearRangeAcrossChunkBoundary(t *testing.T) {
	b := newTestBitmap(t)
	boundary := mem.HeapBase + chunkCover(b)
	g := b.GranuleSize()

	// Paint granules on both sides of the boundary plus sentinels outside
	// the cleared window.
	var painted []uint64
	for off := -8 * int64(g); off <= 8*int64(g); off += int64(g) {
		painted = append(painted, uint64(int64(boundary)+off))
	}
	for _, a := range painted {
		b.Mark(a)
	}
	lo := boundary - 4*g
	hi := boundary + 4*g // exclusive: granule at hi must survive
	b.ClearRange(lo, hi)

	for _, a := range painted {
		want := a < lo || a >= hi
		if got := b.Test(a); got != want {
			t.Errorf("after ClearRange(%#x, %#x): Test(%#x) = %v, want %v", lo, hi, a, got, want)
		}
	}

	// Empty and inverted ranges are no-ops.
	before := b.PopCount()
	b.ClearRange(boundary, boundary)
	b.ClearRange(boundary+g, boundary-g)
	if got := b.PopCount(); got != before {
		t.Errorf("empty/inverted ClearRange changed popcount %d -> %d", before, got)
	}

	// Clearing a straddle where one side's chunk was never allocated must
	// not allocate it or touch the other side's surviving bits.
	farBoundary := mem.HeapBase + 7*chunkCover(b)
	b.Mark(farBoundary) // chunk 7 exists, chunk 6 untouched
	alloc := b.allocated.Load()
	b.ClearRange(farBoundary-2*g, farBoundary+g)
	if b.allocated.Load() != alloc {
		t.Error("ClearRange allocated a chunk")
	}
	if b.Test(farBoundary) {
		t.Error("in-range granule not cleared by the straddling ClearRange")
	}
	if b.AnyInRange(farBoundary-2*g, farBoundary) {
		t.Error("cleared never-allocated side reports set bits")
	}
}

func TestClearRangeClampsToBitmap(t *testing.T) {
	b := newTestBitmap(t)
	g := b.GranuleSize()
	b.Mark(mem.HeapBase + 10*g)
	// Ranges entirely outside are no-ops; over-wide ranges clamp and clear.
	b.ClearRange(0, mem.HeapBase)
	b.ClearRange(mem.HeapLimit, mem.HeapLimit+1<<20)
	if !b.Test(mem.HeapBase + 10*g) {
		t.Fatal("out-of-range ClearRange cleared an in-range bit")
	}
	b.ClearRange(0, ^uint64(0))
	if b.PopCount() != 0 {
		t.Error("clamped full-space ClearRange left bits")
	}
}
