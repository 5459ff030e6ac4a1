package core

import (
	"errors"
	"testing"

	"minesweeper/internal/alloc"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
)

// zeroOnFreeConfig is testConfig with a real ring (BufferCap 1 would drain
// on every free, so no free would ever sit ring-resident) plus purging and
// unmapping, so the oracles below see every path that zeroes or discards
// freed memory. ZeroMode is set to ZeroImmediate, the one mode New accepts;
// the tests below run it as a subtest named "immediate".
func zeroOnFreeConfig() Config {
	cfg := testConfig()
	cfg.BufferCap = 16
	cfg.ZeroMode = ZeroImmediate
	cfg.Purging = true
	cfg.Unmapping = true
	return cfg
}

// TestAllocZeroOracle is the end-to-end oracle for the known-zero map and
// zero-on-free: across repeated malloc/write/free/sweep/purge cycles —
// including large allocations whose pages are decommitted in quarantine and
// recommitted on reuse — every chunk Alloc hands back must read as all
// zeros. A page whose known-zero bit survived where stale data lives would
// fail here (a stale bit would make Zero/Commit elide a scrub it still
// owed); so would a zeroing pass that never ran.
func TestAllocZeroOracle(t *testing.T) {
	sizes := []uint64{48, 256, 2048, 128 << 10} // last one is a large, unmappable extent
	t.Run("immediate", func(t *testing.T) {
		h, tid := newTestHeap(t, zeroOnFreeConfig())
		for cycle := 0; cycle < 4; cycle++ {
			var addrs []uint64
			for i, size := range sizes {
				for k := 0; k < 8; k++ {
					a, err := h.Malloc(tid, size)
					if err != nil {
						t.Fatal(err)
					}
					// The returned chunk must be zero before we dirty it.
					for off := uint64(0); off < size; off += 8 {
						v, err := h.space.Load64(a + off)
						if err != nil {
							t.Fatalf("cycle %d size %d: Load64(%#x): %v", cycle, size, a+off, err)
						}
						if v != 0 {
							t.Fatalf("cycle %d size %d: Alloc returned non-zero word %#x at %#x+%#x",
								cycle, size, v, a, off)
						}
					}
					// Dirty every page of the chunk so the next cycle's
					// zeroing has real work to do (and a wrongly surviving
					// known-zero bit has real stale data to leak).
					for off := uint64(0); off < size; off += 512 {
						if err := h.space.Store64(a+off, uint64(cycle*1000+i*10+k)+0xdead); err != nil {
							t.Fatal(err)
						}
					}
					addrs = append(addrs, a)
				}
			}
			for _, a := range addrs {
				if err := h.Free(tid, a); err != nil {
					t.Fatal(err)
				}
			}
			h.FlushThread(tid)
			h.Sweep() // releases everything and purges (cfg.Purging)
		}
	})
}

// TestZeroModeQuarantineSemantics checks the quarantine-visible behaviours
// around a zeroed, ring-buffered free: membership (Contains) after a drain,
// and double-free detection in both absorbing and debug modes.
func TestZeroModeQuarantineSemantics(t *testing.T) {
	t.Run("immediate", func(t *testing.T) {
		h, tid := newTestHeap(t, zeroOnFreeConfig())
		a, err := h.Malloc(tid, 256)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Free(tid, a); err != nil {
			t.Fatal(err)
		}
		h.FlushThread(tid)
		if !h.q.Contains(a) {
			t.Fatalf("freed+drained %#x not in quarantine membership", a)
		}
		// Absorbing mode: a second free is silently deduplicated at drain
		// time; the entry must not be double-released.
		if err := h.Free(tid, a); err != nil {
			t.Fatalf("absorbing double free returned %v", err)
		}
		h.FlushThread(tid)
		h.Sweep()
		if h.q.Contains(a) {
			t.Fatalf("%#x still quarantined after sweep", a)
		}

		t.Run("debug", func(t *testing.T) {
			cfg := zeroOnFreeConfig()
			cfg.DebugDoubleFree = true
			h, tid := newTestHeap(t, cfg)
			a, err := h.Malloc(tid, 256)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Free(tid, a); err != nil {
				t.Fatal(err)
			}
			if err := h.Free(tid, a); !errors.Is(err, alloc.ErrDoubleFree) {
				t.Fatalf("debug double free returned %v, want ErrDoubleFree", err)
			}
		})
	})
}

// TestZeroDeferredWindow pins the §4.1 guarantee that a dangling read has no
// stale window after free: the moment free() returns, a benign dangling read
// sees zeros, even though the free is still sitting undrained in the thread
// ring. It stays zero after the drain. (The name recalls the window the
// retired ZeroDeferred mode opened; under ZeroImmediate it must be empty.)
func TestZeroDeferredWindow(t *testing.T) {
	t.Run("immediate", func(t *testing.T) {
		h, tid := newTestHeap(t, zeroOnFreeConfig())
		a, err := h.Malloc(tid, 256)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.space.Store64(a, 0x5a5a5a5a5a5a5a5a); err != nil {
			t.Fatal(err)
		}
		if err := h.Free(tid, a); err != nil {
			t.Fatal(err)
		}
		if h.q.Contains(a) {
			t.Fatalf("%#x already drained; the ring never held the free", a)
		}
		if v, err := h.space.Load64(a); err != nil || v != 0 {
			t.Fatalf("dangling read right after free = %#x (err=%v), want 0", v, err)
		}
		h.FlushThread(tid)
		if v, err := h.space.Load64(a); err != nil || v != 0 {
			t.Fatalf("dangling read after drain = %#x (err=%v), want 0", v, err)
		}
	})
}

// TestNewRejectsRetiredZeroMode checks that both constructors refuse any
// ZeroMode but ZeroImmediate: zero-on-free has one implementation, inside
// free().
func TestNewRejectsRetiredZeroMode(t *testing.T) {
	for _, zm := range []ZeroMode{ZeroDeferred, ZeroMode(7)} {
		cfg := testConfig()
		cfg.ZeroMode = zm
		if h, err := New(mem.NewAddressSpace(), cfg, jemalloc.DefaultConfig()); err == nil {
			h.Shutdown()
			t.Errorf("New accepted ZeroMode %d", zm)
		}
		space := mem.NewAddressSpace()
		if h, err := NewWithSubstrate(space, cfg, jemalloc.New(space, jemalloc.DefaultConfig())); err == nil {
			h.Shutdown()
			t.Errorf("NewWithSubstrate accepted ZeroMode %d", zm)
		}
	}
}
