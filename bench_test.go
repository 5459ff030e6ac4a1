// Benchmarks: one testing.B target per table and figure of the paper's
// evaluation. Each benchmark regenerates its figure through the same code
// path as cmd/msbench, at a reduced op budget so `go test -bench=.` stays
// tractable; run `msbench -fig all` for the full-scale reproduction recorded
// in EXPERIMENTS.md.
package minesweeper_test

import (
	"bytes"
	"io"
	"testing"

	"minesweeper/internal/figures"
	"minesweeper/internal/workload"

	minesweeper "minesweeper"
)

// benchScale divides workload op budgets for bench runs.
const benchScale = 20

func runFigure(b *testing.B, fn func(io.Writer, *figures.Runner) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := figures.NewRunner(workload.Options{ScaleDiv: benchScale}, 1)
		var buf bytes.Buffer
		if err := fn(&buf, r); err != nil {
			b.Fatal(err)
		}
		if buf.Len() == 0 {
			b.Fatal("figure produced no output")
		}
	}
}

func BenchmarkFig01_CVETrends(b *testing.B) {
	runFigure(b, func(w io.Writer, _ *figures.Runner) error { return figures.Fig01CVETrends(w) })
}

func BenchmarkFig02_Exploit(b *testing.B) {
	runFigure(b, func(w io.Writer, _ *figures.Runner) error { return figures.Fig02Exploit(w) })
}

func BenchmarkFig07_Spec2006Slowdown(b *testing.B) { runFigure(b, figures.Fig07Slowdown) }

func BenchmarkFig08_Sphinx3RSS(b *testing.B) { runFigure(b, figures.Fig08Sphinx3RSS) }

func BenchmarkFig09_SlowdownZoom(b *testing.B) { runFigure(b, figures.Fig09SlowdownZoom) }

func BenchmarkFig10_Spec2006Memory(b *testing.B) { runFigure(b, figures.Fig10Memory) }

func BenchmarkFig11_AvgPeakMemory(b *testing.B) { runFigure(b, figures.Fig11AvgPeak) }

func BenchmarkFig12_CPUUtilisation(b *testing.B) { runFigure(b, figures.Fig12CPU) }

func BenchmarkFig13_MostlyConcurrent(b *testing.B) { runFigure(b, figures.Fig13MostlyConcurrent) }

func BenchmarkFig14_SweepCounts(b *testing.B) { runFigure(b, figures.Fig14SweepCounts) }

func BenchmarkFig15_OptTime(b *testing.B) { runFigure(b, figures.Fig15OptTime) }

func BenchmarkFig16_OptMemory(b *testing.B) { runFigure(b, figures.Fig16OptMemory) }

func BenchmarkFig17_OverheadSources(b *testing.B) { runFigure(b, figures.Fig17OverheadSources) }

func BenchmarkFig18_Spec2017(b *testing.B) { runFigure(b, figures.Fig18Spec2017) }

func BenchmarkFig19_MimallocBench(b *testing.B) { runFigure(b, figures.Fig19MimallocBench) }

func BenchmarkSummary(b *testing.B) { runFigure(b, figures.Summary) }

func BenchmarkScudo(b *testing.B) { runFigure(b, figures.FigScudo) }

// API-level micro-benchmarks for the protected allocation fast paths.

func benchProcess(b *testing.B, scheme minesweeper.Scheme) (*minesweeper.Process, *minesweeper.Thread) {
	b.Helper()
	p, err := minesweeper.NewProcess(minesweeper.Config{Scheme: scheme})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	th, err := p.NewThread()
	if err != nil {
		b.Fatal(err)
	}
	// Close the thread before the process: a registered thread that stops
	// polling safepoints would stall a collector's stop-the-world.
	b.Cleanup(th.Close)
	return p, th
}

func benchMallocFree(b *testing.B, scheme minesweeper.Scheme, size uint64) {
	benchMallocFreeCfg(b, minesweeper.Config{Scheme: scheme}, size)
}

func benchMallocFreeCfg(b *testing.B, cfg minesweeper.Config, size uint64) {
	p, err := minesweeper.NewProcess(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	th, err := p.NewThread()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(th.Close)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := th.Malloc(size)
		if err != nil {
			b.Fatal(err)
		}
		if err := th.Free(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMallocFree64_Baseline(b *testing.B) {
	benchMallocFree(b, minesweeper.SchemeBaseline, 64)
}

func BenchmarkMallocFree64_MineSweeper(b *testing.B) {
	benchMallocFree(b, minesweeper.SchemeMineSweeper, 64)
}

// benchMallocFreeTouch is benchMallocFreeCfg with one store into the chunk
// between malloc and free — the minimal realistic mutator, and the workload
// where zero-on-free has actual work to do: the store drops the page's
// known-zero bit, so every free really must scrub.
func benchMallocFreeTouch(b *testing.B, cfg minesweeper.Config, size uint64) {
	p, err := minesweeper.NewProcess(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	th, err := p.NewThread()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(th.Close)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := th.Malloc(size)
		if err != nil {
			b.Fatal(err)
		}
		if err := th.Store(a, uint64(i)|1); err != nil {
			b.Fatal(err)
		}
		if err := th.Free(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMallocFree64Touch_MineSweeper(b *testing.B) {
	benchMallocFreeTouch(b, minesweeper.Config{Scheme: minesweeper.SchemeMineSweeper}, 64)
}

// BenchmarkMallocFree64_MineSweeperTelemetry is the same fast path with the
// telemetry registry attached: the pair of timestamped histogram records per
// op is the telemetry layer's whole hot-path cost. make telemetry-overhead
// gates this against the plain MineSweeper run.
func BenchmarkMallocFree64_MineSweeperTelemetry(b *testing.B) {
	benchMallocFreeCfg(b, minesweeper.Config{
		Scheme:    minesweeper.SchemeMineSweeper,
		Telemetry: true,
	}, 64)
}

// BenchmarkMallocFree64_MineSweeperGoverned is the same fast path with the
// adaptive control plane attached under a budget far above any real pressure:
// the atomic knob load at sweep boundaries and the amortised trigger check is
// the governor's whole hot-path cost. make governor-overhead gates this
// against the plain MineSweeper run.
func BenchmarkMallocFree64_MineSweeperGoverned(b *testing.B) {
	benchMallocFreeCfg(b, minesweeper.Config{
		Scheme:       minesweeper.SchemeMineSweeper,
		MemoryBudget: 1 << 40,
	}, 64)
}

// BenchmarkMallocFree64_MineSweeperMostly is the same fast path under the
// pipelined mostly-concurrent sweep: snapshot-at-beginning mark, pre-clean
// rounds and the soft-dirty stop-the-world re-scan. The malloc/free pair
// itself is identical to the fully concurrent scheme — what this measures is
// that the pipeline's extra bookkeeping (the dirty-transition CAS on first
// store to a page) stays off the hot path.
func BenchmarkMallocFree64_MineSweeperMostly(b *testing.B) {
	benchMallocFree(b, minesweeper.SchemeMineSweeperMostlyConcurrent, 64)
}

func BenchmarkMallocFree64_MarkUs(b *testing.B) {
	benchMallocFree(b, minesweeper.SchemeMarkUs, 64)
}

func BenchmarkMallocFree64_FFMalloc(b *testing.B) {
	benchMallocFree(b, minesweeper.SchemeFFMalloc, 64)
}

// benchMallocFreePar runs the malloc/free pair on several goroutines, each
// owning its own Thread (as each OS thread owns its tcache and quarantine
// buffer). On a 1-CPU host this measures contention on the allocator's
// shared structures — the page map above all — rather than parallel speedup.
func benchMallocFreePar(b *testing.B, scheme minesweeper.Scheme, size uint64, par int) {
	benchMallocFreeParCfg(b, minesweeper.Config{Scheme: scheme}, size, par)
}

func benchMallocFreeParCfg(b *testing.B, cfg minesweeper.Config, size uint64, par int) {
	p, err := minesweeper.NewProcess(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	b.SetParallelism(par) // goroutines = par * GOMAXPROCS
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		th, err := p.NewThread()
		if err != nil {
			b.Error(err)
			return
		}
		defer th.Close()
		for pb.Next() {
			a, err := th.Malloc(size)
			if err != nil {
				b.Error(err)
				return
			}
			if err := th.Free(a); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkMallocFree64Par4_Baseline(b *testing.B) {
	benchMallocFreePar(b, minesweeper.SchemeBaseline, 64, 4)
}

func BenchmarkMallocFree64Par4_MineSweeper(b *testing.B) {
	benchMallocFreePar(b, minesweeper.SchemeMineSweeper, 64, 4)
}

func BenchmarkMallocFree64Par4_MineSweeperMostly(b *testing.B) {
	benchMallocFreePar(b, minesweeper.SchemeMineSweeperMostlyConcurrent, 64, 4)
}

func BenchmarkMallocFree64Par8_Baseline(b *testing.B) {
	benchMallocFreePar(b, minesweeper.SchemeBaseline, 64, 8)
}

func BenchmarkMallocFree64Par8_MineSweeper(b *testing.B) {
	benchMallocFreePar(b, minesweeper.SchemeMineSweeper, 64, 8)
}

// BenchmarkMallocFree64Par8_MineSweeperGoverned is the contended fast path
// with the adaptive control plane attached under a slack budget: 8 threads'
// private rings drain into the sharded quarantine while the governor samples
// sweep boundaries. Gates that the governor adds no cross-thread serialisation
// beyond plain MineSweeper's.
func BenchmarkMallocFree64Par8_MineSweeperGoverned(b *testing.B) {
	benchMallocFreeParCfg(b, minesweeper.Config{
		Scheme:       minesweeper.SchemeMineSweeper,
		MemoryBudget: 1 << 40,
	}, 64, 8)
}

func BenchmarkLoadStore_MineSweeper(b *testing.B) {
	_, th := benchProcess(b, minesweeper.SchemeMineSweeper)
	a, err := th.Malloc(4096)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := a + uint64(i%512)*8
		if err := th.Store(addr, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if _, err := th.Load(addr); err != nil {
			b.Fatal(err)
		}
	}
}
