package shadow

import (
	"sync/atomic"
	"testing"

	"minesweeper/internal/mem"
)

// chunkCover returns the bytes of address space one chunk covers for b.
func chunkCover(b *Bitmap) uint64 { return uint64(1) << (bitsPerChunkShift + b.granuleShift) }

// requireIdentical fails unless a and b have bit-identical contents,
// comparing raw chunk words over every chunk slot of the directory (an
// absent chunk, or a chunk under an absent leaf, equals an all-zero one).
func requireIdentical(t *testing.T, a, b *Bitmap) {
	t.Helper()
	if a.base != b.base || a.limit != b.limit || a.granuleShift != b.granuleShift {
		t.Fatal("bitmaps have different geometry")
	}
	var zero chunk
	for i := uint64(0); i < uint64(len(a.root))*leafChunks; i++ {
		g := i << bitsPerChunkShift
		ca, cb := a.getChunk(g), b.getChunk(g)
		if ca == nil && cb == nil {
			continue
		}
		if ca == nil {
			ca = &zero
		}
		if cb == nil {
			cb = &zero
		}
		for w := range ca {
			va := atomic.LoadUint64(&ca[w])
			vb := atomic.LoadUint64(&cb[w])
			if va != vb {
				t.Fatalf("chunk %d word %d: %#x vs %#x", i, w, va, vb)
			}
		}
	}
}

// TestMarkerEquivalence drives a plain Bitmap.Mark and a Marker with the same
// randomized address stream — clustered runs, chunk-hopping jumps, duplicate
// marks, out-of-range addresses, interleaved flushes — and requires the
// resulting shadow maps to be bit-identical.
func TestMarkerEquivalence(t *testing.T) {
	plain := newTestBitmap(t)
	buffered := newTestBitmap(t)
	mk := buffered.NewMarker()

	rng := uint64(7)
	addr := mem.HeapBase
	for i := 0; i < 200000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		switch rng % 100 {
		case 0: // far jump, usually into another chunk
			addr = mem.HeapBase + (rng>>8)%(mem.HeapLimit-mem.HeapBase)
		case 1: // out-of-range addresses must be ignored by both
			addr = rng >> 8 % mem.HeapBase
		case 2: // boundary cases
			switch (rng >> 8) % 4 {
			case 0:
				addr = mem.HeapBase
			case 1:
				addr = mem.HeapLimit - 1
			case 2:
				addr = mem.HeapLimit // just outside
			case 3: // last granule of a chunk, then the very next mark
				// crosses into the neighbouring chunk
				addr = mem.HeapBase + chunkCover(plain) - 1
			}
		case 3: // mid-stream flush must not disturb equivalence
			mk.Flush()
			continue
		default: // clustered local walk, the sweep's common case
			addr += (rng >> 8) % 64
		}
		plain.Mark(addr)
		mk.Mark(addr)
	}
	mk.Flush()

	requireIdentical(t, plain, buffered)
	if p, q := plain.PopCount(), buffered.PopCount(); p != q {
		t.Fatalf("popcount %d vs %d", p, q)
	}
}

// TestMarkerVisibilityAfterFlush checks buffered bits become visible exactly
// at Flush.
func TestMarkerVisibilityAfterFlush(t *testing.T) {
	b := newTestBitmap(t)
	mk := b.NewMarker()
	a1 := mem.HeapBase + 32
	mk.Mark(a1)
	if b.Test(a1) {
		t.Error("buffered mark visible before flush")
	}
	mk.Flush()
	if !b.Test(a1) {
		t.Error("mark not visible after flush")
	}
	// A mark that displaces the cached word publishes the old word without
	// an explicit flush.
	a2 := mem.HeapBase + 64*16*10 // a different shadow word
	mk.Mark(a2)
	a3 := mem.HeapBase + chunkCover(b) + 8 // a different chunk
	mk.Mark(a3)
	if !b.Test(a2) {
		t.Error("word displaced from the marker cache not published")
	}
	mk.Flush()
	if !b.Test(a3) {
		t.Error("final flush lost the last word")
	}
	// Flush with nothing pending is a no-op.
	mk.Flush()
	if got := b.PopCount(); got != 3 {
		t.Errorf("popcount = %d, want 3", got)
	}
}

// TestMarkerConcurrentWorkers has several Markers (one per goroutine, as the
// sweeper uses them) marking overlapping clustered ranges concurrently; the
// result must equal the union computed with plain marks.
func TestMarkerConcurrentWorkers(t *testing.T) {
	concurrent := newTestBitmap(t)
	reference := newTestBitmap(t)

	const workers = 4
	const n = 20000
	addrsFor := func(w int) []uint64 {
		rng := uint64(w)*2654435761 + 1
		addrs := make([]uint64, n)
		base := mem.HeapBase + uint64(w)*(chunkCover(reference)/2) // overlap neighbours
		for i := range addrs {
			rng = rng*6364136223846793005 + 1442695040888963407
			addrs[i] = base + (rng>>8)%(2*chunkCover(reference))
		}
		return addrs
	}
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			mk := concurrent.NewMarker()
			for _, a := range addrsFor(w) {
				mk.Mark(a)
			}
			mk.Flush()
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	for w := 0; w < workers; w++ {
		for _, a := range addrsFor(w) {
			reference.Mark(a)
		}
	}
	requireIdentical(t, reference, concurrent)
}

// BenchmarkShadowMarker measures a clustered mark stream — the sweep's
// common case — through plain Bitmap.Mark vs a write-combining Marker.
func BenchmarkShadowMarker(b *testing.B) {
	mkBitmap := func(b *testing.B) *Bitmap {
		bm, err := New(mem.HeapBase, mem.HeapLimit, 4)
		if err != nil {
			b.Fatal(err)
		}
		return bm
	}
	// A page-local pointer cluster: 512 targets walking forward in small
	// strides, like one page of a live array-of-structs.
	addrs := make([]uint64, 512)
	addr := mem.HeapBase
	rng := uint64(3)
	for i := range addrs {
		rng = rng*6364136223846793005 + 1442695040888963407
		addr += (rng >> 8) % 96
		addrs[i] = addr
	}
	b.Run("mark", func(b *testing.B) {
		bm := mkBitmap(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, a := range addrs {
				bm.Mark(a)
			}
		}
	})
	b.Run("marker", func(b *testing.B) {
		bm := mkBitmap(b)
		mk := bm.NewMarker()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, a := range addrs {
				mk.Mark(a)
			}
			mk.Flush()
		}
	})
}
