package shadow

import "sync/atomic"

// Marker is a single-goroutine write buffer in front of a Bitmap's Mark. The
// sweep's hot loop marks pointer targets that are strongly clustered — a page
// of a live data structure mostly points into a handful of nearby allocation
// pools — so consecutive Mark calls usually land in the same chunk, and often
// in the same 64-bit shadow word. A plain Bitmap.Mark pays the chunk lookup
// (two atomic pointer loads) and an atomic load(+or) per call; a Marker
// tracks the byte window covered by the current shadow word and accumulates
// bits destined for it in a local register, publishing them with a single
// atomic OR when the window moves (or on Flush). N clustered marks collapse
// to ~1 atomic, and the in-window fast path is a subtract, a compare and a
// shift — small enough to inline into the sweep's scan loop.
//
// Each sweep worker owns one Marker; the underlying Bitmap remains safe for
// concurrent marking because publication is still atomic OR. Pending bits are
// invisible to Test/AnyInRange until Flush, so a Marker must be flushed
// before the marking phase's results are consumed, and must not be used
// across ClearAll/ClearRange of the addresses it is buffering (the sweeper
// creates fresh Markers per pass, which satisfies both).
type Marker struct {
	b      *Bitmap
	c      *chunk // chunk holding the pending word; &discard before first hit
	wordLo uint64 // first byte whose granule maps into the pending word
	shift  uint64 // granuleShift, cached
	wi     uint64 // index of the pending word within c
	acc    uint64 // pending bits for word wi
}

// discard absorbs marks accumulated before the first in-coverage Mark: the
// sentinel window sits at [limit, limit+64<<shift), whose addresses are
// outside the bitmap and must be ignored — OR-ing their bits into this
// never-read chunk ignores them without a coverage check on the fast path.
// Shared across markers; writes are atomic and the contents are never read.
var discard chunk

// NewMarker returns a write-combining marker over b for use by a single
// goroutine.
func (b *Bitmap) NewMarker() *Marker {
	return &Marker{b: b, c: &discard, wordLo: b.limit, shift: uint64(b.granuleShift)}
}

// Mark buffers the bit for the granule containing addr. Addresses outside
// the covered range are ignored, exactly as with Bitmap.Mark. The in-window
// test and the bit index are one computation — a shadow word covers 64
// granules, so addr lands in the pending word exactly when the shifted
// offset is below 64 — which keeps Mark under the inlining budget.
func (m *Marker) Mark(addr uint64) {
	if i := (addr - m.wordLo) >> m.shift; i < 64 {
		m.acc |= 1 << i
		return
	}
	m.markSlow(addr)
}

// markSlow publishes the pending word and retargets the window at addr's
// shadow word. Out-of-coverage addresses leave the window untouched: the
// window is always either fully inside coverage or the sentinel, so the
// inlined fast path never misdirects a covered mark.
func (m *Marker) markSlow(addr uint64) {
	b := m.b
	if addr-b.base >= b.limit-b.base {
		return
	}
	m.Flush()
	g := (addr - b.base) >> b.granuleShift
	m.c = b.ensureChunk(g)
	i := g & (bitsPerChunk - 1)
	m.wi = i >> 6
	m.acc = 1 << (i & 63)
	m.wordLo = b.base + (g&^63)<<m.shift
}

// Flush publishes any pending bits to the bitmap. After Flush returns, every
// prior Mark is visible to Test/AnyInRange. The window survives the flush,
// so flushing mid-phase costs nothing beyond the one atomic OR.
func (m *Marker) Flush() {
	if m.acc != 0 {
		if atomic.LoadUint64(&m.c[m.wi])&m.acc != m.acc {
			atomic.OrUint64(&m.c[m.wi], m.acc)
		}
		m.acc = 0
	}
}
