package core

import (
	"math/rand/v2"
	"testing"

	"minesweeper/internal/alloc"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
)

// benchSweepSetup builds a synchronous heap and scratch for 50k small
// allocations (2 KiB each, so the marking pass covers a realistically
// page-heavy quarantine); the timed region of each variant below is exactly
// one explicit Sweep over that backlog.
func benchSweepSetup(b *testing.B, cfg Config) (*Heap, alloc.ThreadID, []uint64) {
	b.Helper()
	h, err := New(mem.NewAddressSpace(), cfg, jemalloc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(h.Shutdown)
	tid := h.RegisterThread()
	return h, tid, make([]uint64, 50_000)
}

func benchSweepConfig() Config {
	cfg := DefaultConfig()
	cfg.Mode = Synchronous
	cfg.Purging = false
	cfg.Unmapping = false
	cfg.PauseThreshold = 0
	cfg.SweepThreshold = 1e18 // only explicit Sweep calls run
	return cfg
}

// runSweepRelease times one Sweep per iteration over len(addrs) fresh
// allocations freed in allocation order, or in a random order when rng is
// non-nil.
func runSweepRelease(b *testing.B, h *Heap, tid alloc.ThreadID, addrs []uint64, rng *rand.Rand) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range addrs {
			a, err := h.Malloc(tid, 2048)
			if err != nil {
				b.Fatal(err)
			}
			addrs[j] = a
		}
		if rng != nil {
			rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
		}
		for _, a := range addrs {
			if err := h.Free(tid, a); err != nil {
				b.Fatal(err)
			}
		}
		h.FlushThread(tid)
		b.StartTimer()
		h.Sweep()
	}
}

// BenchmarkSweepRelease measures a full synchronous sweep over 50k freed
// 2 KiB allocations: the marking pass plus the filterAndRecycle release.
// With zero-on-free feeding the known-zero page map, the mark dismisses
// whole quarantined pages without touching their memory, so this is the
// headline number for the map. (Before the known-zero map this benchmark
// measured only the release phase with marking disabled; that ablation
// lives on as BenchmarkSweepReleaseNoMark.)
func BenchmarkSweepRelease(b *testing.B) {
	h, tid, addrs := benchSweepSetup(b, benchSweepConfig())
	runSweepRelease(b, h, tid, addrs, nil)
}

// BenchmarkSweepReleaseShuffled is BenchmarkSweepRelease with the frees in
// a random (fixed-seed) order, so the locked-in list, and with it each
// recycle batch, is in no address order: the case where FreeBatch's
// page-table walks miss the cache most.
func BenchmarkSweepReleaseShuffled(b *testing.B) {
	h, tid, addrs := benchSweepSetup(b, benchSweepConfig())
	runSweepRelease(b, h, tid, addrs, rand.New(rand.NewPCG(1, 2)))
}

// BenchmarkSweepReleaseNoKnownZero is BenchmarkSweepRelease with the
// known-zero page skip disabled: the mark still runs its 8-wide zero-group
// word loop over every resident page. The same-window ratio against
// BenchmarkSweepRelease is the known-zero map's dividend (the acceptance
// bar is >= 1.2x; see EXPERIMENTS.md).
func BenchmarkSweepReleaseNoKnownZero(b *testing.B) {
	h, tid, addrs := benchSweepSetup(b, benchSweepConfig())
	h.sw.SetKnownZeroSkip(false)
	runSweepRelease(b, h, tid, addrs, nil)
}

// BenchmarkSweepReleaseNoMark is the pre-known-zero-map definition of this
// benchmark: marking, zeroing and purging disabled, so the timed region is
// exactly the filterAndRecycle path — quarantine release accounting plus
// the substrate free of each entry.
func BenchmarkSweepReleaseNoMark(b *testing.B) {
	cfg := benchSweepConfig()
	cfg.Sweeping = false
	cfg.Zeroing = false
	h, tid, addrs := benchSweepSetup(b, cfg)
	runSweepRelease(b, h, tid, addrs, nil)
}
