// Package jemalloc implements a JeMalloc-style size-class slab allocator over
// the simulated address space. It reproduces the structural properties
// MineSweeper depends on: out-of-line metadata (nothing allocator-internal is
// stored in application memory, so sweeps never scan or corrupt metadata),
// extent-based large allocations, per-thread caches, decay-based purging of
// dirty extents, and an extent-hook API (commit/decommit) that MineSweeper
// intercepts for its unmapping and fragmentation management (§4.2, §4.5).
//
// The paper's minimally modified JeMalloc also grows every allocation by one
// byte so C++ end() pointers stay inside the same allocation, and so does
// Heap.Malloc here.
package jemalloc

import (
	"math/bits"

	"minesweeper/internal/mem"
)

// Size-class geometry, matching 64-bit jemalloc with 4 KiB pages: classes
// 8, 16, 32, 48, ..., 128, then four classes per doubling up to the small
// maximum; larger requests are page-granular "large" extents.
const (
	// SmallMax is the largest small (slab-allocated) class.
	SmallMax = 14336
	// maxSlabPages caps slab extent size.
	maxSlabPages = 16
)

// classes is the small size-class table, built at init.
var classes []uint64

// slabPagesFor holds the chosen slab size (in pages) per class.
var slabPagesFor []int

// class8 maps (size+7)/8 to a class index for sizes <= SmallMax.
var class8 []int32

func init() {
	classes = append(classes, 8, 16, 32, 48, 64, 80, 96, 112, 128)
	for group := uint64(128); ; group *= 2 {
		step := group / 4
		done := false
		for i := uint64(1); i <= 4; i++ {
			s := group + i*step
			if s > SmallMax {
				done = true
				break
			}
			classes = append(classes, s)
		}
		if done {
			break
		}
	}

	slabPagesFor = make([]int, len(classes))
	for c, size := range classes {
		bestPages, bestWaste := 1, ^uint64(0)
		for p := 1; p <= maxSlabPages; p++ {
			bytes := uint64(p) * mem.PageSize
			if bytes < size {
				continue
			}
			waste := bytes % size
			// Normalise waste per page so bigger slabs must earn
			// their keep.
			score := waste * uint64(maxSlabPages) / uint64(p)
			if score < bestWaste {
				bestWaste, bestPages = score, p
			}
			if waste == 0 {
				break
			}
		}
		slabPagesFor[c] = bestPages
	}

	class8 = make([]int32, SmallMax/8+1)
	c := int32(0)
	for i := range class8 {
		size := uint64(i) * 8
		if size == 0 {
			size = 1
		}
		for classes[c] < size {
			c++
		}
		class8[i] = c
	}
}

// NumClasses returns the number of small size classes.
func NumClasses() int { return len(classes) }

// ClassSize returns the allocation size of class c.
func ClassSize(c int) uint64 { return classes[c] }

// SizeToClass returns the smallest class whose size is >= size. size must be
// in (0, SmallMax].
func SizeToClass(size uint64) int {
	return int(class8[(size+7)/8])
}

// IsSmall reports whether size is served from slabs.
func IsSmall(size uint64) bool { return size > 0 && size <= SmallMax }

// SlabPages returns the slab extent size, in pages, used for class c.
func SlabPages(c int) int { return slabPagesFor[c] }

// SlabRegions returns how many regions of class c fit in its slab.
func SlabRegions(c int) int {
	return int(uint64(slabPagesFor[c]) * mem.PageSize / classes[c])
}

// LargeAllocSize rounds a large request up to its large size class: four
// classes per doubling, continuing the small-class geometry (16K, 20K, 24K,
// 28K, 32K, 40K, ...) as in jemalloc. Quantising large extents is what makes
// the arena's dirty-extent recycling effective: without it, continuously
// varying request sizes would never find a reusable extent.
func LargeAllocSize(req uint64) uint64 {
	const minLarge = 4 * mem.PageSize
	if req <= minLarge {
		return minLarge
	}
	g := uint64(1) << (63 - bits.LeadingZeros64(req-1))
	step := g / 4
	return (req + step - 1) / step * step
}

// LargePages returns the extent size in pages for a large request.
func LargePages(size uint64) uint64 { return LargeAllocSize(size) / mem.PageSize }
