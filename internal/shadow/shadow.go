// Package shadow implements the sparse shadow bitmaps MineSweeper uses.
//
// The paper's shadow map is "conceptually, an array of bits, containing one
// bit per granule of virtual memory", with one bit per 128 bits — the
// smallest allocation granule. During the marking phase every word of program
// memory is interpreted as a pointer and the bit for its target granule is
// set; during the filtering phase each quarantined allocation's bit range is
// tested, and any set bit keeps the allocation in quarantine.
//
// A flat bitmap over the full reservable heap area would be gigabytes, so the
// map is chunked and chunks are allocated lazily on first mark. The chunk
// directory is itself sparse, the way a multi-level page table keeps the
// paper's demand-paged shadow space cheap: a small root of leaf pointers,
// each leaf holding the chunk pointers of one slice of the range, with a leaf
// installed only when a mark first lands in its slice. Building a bitmap
// costs one small root, and clearing or counting it visits only installed
// leaves, so untouched parts of the 1 TiB heap range cost nothing. All
// operations are atomic so parallel sweeper threads mark concurrently
// without locks.
package shadow

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// bitsPerChunkShift fixes each chunk at 2^18 bits (32 KiB of backing), so a
// chunk covers 2^(18+granuleShift) bytes of address space.
const bitsPerChunkShift = 18

const (
	bitsPerChunk  = 1 << bitsPerChunkShift
	wordsPerChunk = bitsPerChunk / 64
)

// leafShift fixes each directory leaf at 2^10 chunk pointers (8 KiB). At
// MineSweeper's 16-byte granule a chunk covers 4 MiB and a leaf 4 GiB, so
// the 1 TiB heap range needs a root of 256 leaf pointers (2 KiB).
const leafShift = 10

const leafChunks = 1 << leafShift

type chunk [wordsPerChunk]uint64

// leaf is one directory page: the chunk pointers of leafChunks consecutive
// chunks.
type leaf [leafChunks]atomic.Pointer[chunk]

// Bitmap is a sparse atomic bitmap over the address range [base, limit), with
// one bit per 2^granuleShift bytes.
type Bitmap struct {
	base         uint64
	limit        uint64
	granuleShift uint
	root         []atomic.Pointer[leaf] // leaf i holds chunks [i<<leafShift, (i+1)<<leafShift)
	allocated    atomic.Int64           // number of live chunks, for overhead accounting
}

// New returns a bitmap covering [base, limit) at one bit per 2^granuleShift
// bytes. base and limit must be aligned to the chunk coverage.
func New(base, limit uint64, granuleShift uint) (*Bitmap, error) {
	if limit <= base {
		return nil, fmt.Errorf("shadow: New: empty range [%#x, %#x)", base, limit)
	}
	cover := uint64(1) << (bitsPerChunkShift + granuleShift)
	if base%cover != 0 || limit%cover != 0 {
		return nil, fmt.Errorf("shadow: New: range [%#x, %#x) not aligned to chunk coverage %#x", base, limit, cover)
	}
	n := (limit - base) / cover
	return &Bitmap{
		base:         base,
		limit:        limit,
		granuleShift: granuleShift,
		root:         make([]atomic.Pointer[leaf], (n+leafChunks-1)/leafChunks),
	}, nil
}

// Covers reports whether addr lies inside the bitmap's range.
func (b *Bitmap) Covers(addr uint64) bool { return addr >= b.base && addr < b.limit }

// granule returns the global granule index of addr.
func (b *Bitmap) granule(addr uint64) uint64 { return (addr - b.base) >> b.granuleShift }

// getChunk returns the chunk holding granule g, or nil if never marked.
func (b *Bitmap) getChunk(g uint64) *chunk {
	ci := g >> bitsPerChunkShift
	l := b.root[ci>>leafShift].Load()
	if l == nil {
		return nil
	}
	return l[ci&(leafChunks-1)].Load()
}

// ensureChunk returns the chunk holding granule g, installing its leaf and
// allocating the chunk if needed. Both installs are CASes, so concurrent
// first marks agree on one leaf and one chunk.
func (b *Bitmap) ensureChunk(g uint64) *chunk {
	ci := g >> bitsPerChunkShift
	lslot := &b.root[ci>>leafShift]
	l := lslot.Load()
	if l == nil {
		l = new(leaf)
		if !lslot.CompareAndSwap(nil, l) {
			l = lslot.Load()
		}
	}
	slot := &l[ci&(leafChunks-1)]
	if c := slot.Load(); c != nil {
		return c
	}
	c := new(chunk)
	if slot.CompareAndSwap(nil, c) {
		b.allocated.Add(1)
		return c
	}
	return slot.Load()
}

// Mark sets the bit for the granule containing addr. Addresses outside the
// covered range are ignored (they cannot be pointers into the shadowed area).
// Mark is safe for concurrent use.
func (b *Bitmap) Mark(addr uint64) {
	if !b.Covers(addr) {
		return
	}
	g := b.granule(addr)
	c := b.ensureChunk(g)
	i := g & (bitsPerChunk - 1)
	word, bit := i/64, i%64
	mask := uint64(1) << bit
	if atomic.LoadUint64(&c[word])&mask == 0 {
		atomic.OrUint64(&c[word], mask)
	}
}

// Test reports whether the bit for the granule containing addr is set.
func (b *Bitmap) Test(addr uint64) bool {
	if !b.Covers(addr) {
		return false
	}
	g := b.granule(addr)
	c := b.getChunk(g)
	if c == nil {
		return false
	}
	i := g & (bitsPerChunk - 1)
	return atomic.LoadUint64(&c[i/64])&(1<<(i%64)) != 0
}

// AnyInRange reports whether any bit is set for granules overlapping the byte
// range [lo, hi). This is the quarantine filter: MineSweeper checks "the full
// shadow-map range corresponding to the allocation before recycling it".
func (b *Bitmap) AnyInRange(lo, hi uint64) bool {
	if hi <= lo {
		return false
	}
	if lo < b.base {
		lo = b.base
	}
	if hi > b.limit {
		hi = b.limit
	}
	if hi <= lo {
		return false
	}
	g := b.granule(lo)
	gEnd := b.granule(hi-1) + 1
	for g < gEnd {
		c := b.getChunk(g)
		if c == nil {
			// Skip to the next chunk boundary.
			g = (g>>bitsPerChunkShift + 1) << bitsPerChunkShift
			continue
		}
		i := g & (bitsPerChunk - 1)
		// Scan word by word within this chunk.
		chunkEnd := (g>>bitsPerChunkShift + 1) << bitsPerChunkShift
		end := gEnd
		if end > chunkEnd {
			end = chunkEnd
		}
		iEnd := end - (g - i) // index within chunk of the end granule
		for i < iEnd {
			w := atomic.LoadUint64(&c[i/64])
			lowBit := i % 64
			hiBit := uint64(64)
			if iEnd-i < 64-lowBit {
				hiBit = lowBit + (iEnd - i)
			}
			mask := ^uint64(0) << lowBit
			if hiBit < 64 {
				mask &= (1 << hiBit) - 1
			}
			if w&mask != 0 {
				return true
			}
			i += hiBit - lowBit
		}
		g = end
	}
	return false
}

// ClearRange clears all bits for granules overlapping [lo, hi).
func (b *Bitmap) ClearRange(lo, hi uint64) {
	if hi <= lo {
		return
	}
	if lo < b.base {
		lo = b.base
	}
	if hi > b.limit {
		hi = b.limit
	}
	if hi <= lo {
		return
	}
	for g, gEnd := b.granule(lo), b.granule(hi-1)+1; g < gEnd; {
		c := b.getChunk(g)
		chunkEnd := (g>>bitsPerChunkShift + 1) << bitsPerChunkShift
		end := gEnd
		if end > chunkEnd {
			end = chunkEnd
		}
		if c == nil {
			g = end
			continue
		}
		for ; g < end; g++ {
			i := g & (bitsPerChunk - 1)
			mask := ^(uint64(1) << (i % 64))
			atomic.AndUint64(&c[i/64], mask)
		}
	}
}

// ClearAll drops every chunk, resetting the bitmap to empty in O(installed
// leaves). MineSweeper clears the whole shadow space between sweeps. Leaves
// stay installed, as page tables do: the next sweep marks the same ranges.
func (b *Bitmap) ClearAll() {
	for i := range b.root {
		l := b.root[i].Load()
		if l == nil {
			continue
		}
		for j := range l {
			if l[j].Load() != nil {
				l[j].Store(nil)
				b.allocated.Add(-1)
			}
		}
	}
}

// PopCount returns the number of set bits (diagnostic; O(installed leaves +
// allocated chunks)).
func (b *Bitmap) PopCount() uint64 {
	var n uint64
	for i := range b.root {
		l := b.root[i].Load()
		if l == nil {
			continue
		}
		for j := range l {
			c := l[j].Load()
			if c == nil {
				continue
			}
			for w := range c {
				n += uint64(bits.OnesCount64(atomic.LoadUint64(&c[w])))
			}
		}
	}
	return n
}

// FootprintBytes returns the memory consumed by allocated chunks — the
// shadow map's contribution to memory overhead (the paper reports it at
// "less than 1%"). The directory is not counted: like the page tables of
// the paper's shadow space, it is a few KiB per installed leaf.
func (b *Bitmap) FootprintBytes() uint64 {
	return uint64(b.allocated.Load()) * wordsPerChunk * 8
}

// GranuleSize returns the bytes covered by one bit.
func (b *Bitmap) GranuleSize() uint64 { return 1 << b.granuleShift }
