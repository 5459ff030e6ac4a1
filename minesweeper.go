// Package minesweeper is a faithful Go reproduction of MineSweeper (Erdős,
// Ainsworth & Jones, ASPLOS 2022): a drop-in layer between an application
// and its memory allocator that prevents use-after-free exploitation by
// quarantining freed allocations until a linear sweep of program memory
// proves no dangling pointers to them remain.
//
// Go has no manual memory management, so the library ships its own complete
// substrate: a simulated 64-bit virtual address space (internal/mem), a
// jemalloc-style allocator (internal/jemalloc), the MineSweeper layer itself
// (internal/core) with zero-on-free, large-object unmapping, concurrent
// parallel sweeping and allocator purge integration, plus the paper's two
// comparison systems, MarkUs (internal/markus) and FFMalloc
// (internal/ffmalloc), and a Scudo-style hardened allocator pairing
// (internal/scudo).
//
// The public API models a protected process:
//
//	proc, _ := minesweeper.NewProcess(minesweeper.Config{Scheme: minesweeper.SchemeMineSweeper})
//	defer proc.Close()
//	th, _ := proc.NewThread()
//	p, _ := th.Malloc(64)
//	th.Store(p, 42)
//	th.Free(p)            // quarantined, zeroed — not yet reusable
//	v, _ := th.Load(p)    // benign use-after-free: reads 0
//
// Every pointer a workload stores is a real address in the simulated space;
// sweeps, shadow-map marking, double-free de-duplication and page unmapping
// all operate exactly as described in the paper. See DESIGN.md for the
// architecture and EXPERIMENTS.md for the reproduction of the paper's
// evaluation.
package minesweeper

import (
	"errors"
	"fmt"
	"math"

	"minesweeper/internal/alloc"
	"minesweeper/internal/control"
	"minesweeper/internal/schemes"
)

// Addr is a virtual address in the simulated process.
type Addr = uint64

// Scheme selects the memory-management scheme protecting a Process. It is
// internal/schemes' Kind, so a Process is built by the same scheme table as
// the CLIs, the figures and the workload runner.
type Scheme = schemes.Kind

// Available schemes.
const (
	// SchemeBaseline is unprotected jemalloc (the evaluation baseline).
	SchemeBaseline = schemes.Baseline
	// SchemeMineSweeper is the paper's default: fully concurrent sweeps.
	SchemeMineSweeper = schemes.MineSweeper
	// SchemeMineSweeperMostlyConcurrent adds the stop-the-world re-scan
	// of modified pages (§4.3, §5.3).
	SchemeMineSweeperMostlyConcurrent = schemes.MineSweeperMostly
	// SchemeMarkUs is the transitive-marking comparison system.
	SchemeMarkUs = schemes.MarkUs
	// SchemeFFMalloc is the one-time-allocator comparison system.
	SchemeFFMalloc = schemes.FFMalloc
	// SchemeScudoMineSweeper pairs MineSweeper with a Scudo-style
	// hardened allocator (§7).
	SchemeScudoMineSweeper = schemes.Scudo
	// SchemeOscar is the page-permissions comparator (§6.3).
	SchemeOscar = schemes.Oscar
	// SchemeDangSan is the pointer-tracking nullification comparator
	// (§6.4).
	SchemeDangSan = schemes.DangSan
	// SchemePSweeper is the concurrent pointer-sweeping comparator (§6.4).
	SchemePSweeper = schemes.PSweeper
	// SchemeCRCount is the reference-counting comparator (§6.6).
	SchemeCRCount = schemes.CRCount
	// SchemeDlmalloc is an unprotected GNU-malloc-style allocator with
	// in-band metadata (the §2 footnote's corruptible baseline).
	SchemeDlmalloc = schemes.Dlmalloc
	// SchemeMineSweeperDlmalloc drops MineSweeper onto the dlmalloc
	// substrate — a second any-allocator integration (§7).
	SchemeMineSweeperDlmalloc = schemes.MineSweeperDlmalloc
)

// Allocation errors, matched with errors.Is.
var (
	// ErrOutOfMemory reports address-space exhaustion.
	ErrOutOfMemory = alloc.ErrOutOfMemory
	// ErrInvalidFree reports a free of something that is not a live
	// allocation base.
	ErrInvalidFree = alloc.ErrInvalidFree
	// ErrDoubleFree reports a detected double free (only surfaced by
	// schemes/configurations that report rather than absorb them).
	ErrDoubleFree = alloc.ErrDoubleFree
)

// Config configures a Process. The zero value is a usable MineSweeper
// default (SchemeBaseline is explicit: Scheme's zero value is the baseline,
// so pick SchemeMineSweeper for protection).
type Config struct {
	// Scheme selects the protection scheme.
	Scheme Scheme
	// SweepThreshold overrides the quarantine fraction that triggers a
	// sweep (default 0.15; MarkUs uses 0.25). Ignored by schemes without
	// sweeps.
	SweepThreshold float64
	// Helpers overrides the helper sweep-thread count (default 6, clamped
	// to available CPUs).
	Helpers int
	// PauseThreshold overrides the allocation-pause threshold (§5.7);
	// zero keeps the default, negative disables pausing.
	PauseThreshold float64
	// UnmappedFactor overrides the unmapped-quarantine sweep trigger
	// (default 9, §4.2).
	UnmappedFactor float64
	// BufferCap overrides the thread-local quarantine buffer capacity.
	BufferCap int
	// RescanBudgetPages overrides the dirty-page budget for the
	// mostly-concurrent stop-the-world re-scan (default 512): while more
	// pages are dirty, the sweeper pre-cleans concurrently before stopping
	// the world. Negative disables pre-cleaning; zero keeps the default.
	RescanBudgetPages int
	// DisableZeroing turns off zero-on-free (§4.1) — ablation only.
	DisableZeroing bool
	// DisableUnmapping turns off large-object page release (§4.2).
	DisableUnmapping bool
	// DisablePurging turns off the post-sweep allocator purge (§4.5).
	DisablePurging bool
	// Synchronous runs sweeps on the freeing thread (ablation, Figure 15).
	Synchronous bool
	// DebugDoubleFree reports double frees as errors instead of absorbing
	// them (the paper's debug mode).
	DebugDoubleFree bool
	// Telemetry attaches a telemetry registry to the scheme's heap:
	// per-sweep phase records, malloc/free latency histograms, and
	// quarantine gauges, retrievable with Process.Telemetry(). Supported
	// by the core-based schemes (MineSweeper variants and Scudo+MS);
	// ignored elsewhere.
	Telemetry bool
	// Events attaches a flight recorder (internal/events) to the scheme's
	// heap: always-on per-thread rings of sweep-phase spans, pause and STW
	// windows, drains, and sampled ops, with anomaly-triggered dumps and
	// the exporters behind msstat -events/-chrome/-watch. Retrievable with
	// Process.Events(). Same scheme support as Telemetry.
	Events bool

	// MemoryBudget, when non-zero, bounds the process's resident footprint:
	// the control plane treats it as the 100% pressure mark, sweeps are
	// additionally triggered when RSS crosses it, and allocation briefly
	// pauses while RSS sits above it with sweepable quarantine to reclaim.
	// Only meaningful for the four MineSweeper schemes
	// (Scheme.IsMineSweeper); Validate rejects it elsewhere.
	MemoryBudget uint64
	// Controller selects the policy governing the runtime knobs (sweep
	// threshold, unmapped factor, pause brake, helper count). Nil with a
	// MemoryBudget set means AIMDPolicy(); nil without a budget leaves the
	// heap ungoverned (the fixed-knob behaviour). StaticPolicy() attaches
	// the control plane for observability while freezing the knobs at
	// their configured values.
	Controller Policy
}

// Policy is a control-plane policy deciding knob adjustments at sweep
// boundaries. Use StaticPolicy or AIMDPolicy, or implement the interface for
// custom governing.
type Policy = control.Policy

// StaticPolicy returns the policy that freezes the configured knobs: the
// governed heap behaves bit-for-bit like an ungoverned one, while still
// recording pressure levels for observability. The control group for
// governor experiments.
func StaticPolicy() Policy { return control.Static{} }

// AIMDPolicy returns the default adaptive governor: additive increase,
// multiplicative decrease. Under memory pressure it tightens the sweep
// trigger, pause brake and unmapped factor multiplicatively and adds sweep
// helpers; when calm it relaxes additively back toward the configured
// baseline.
func AIMDPolicy() Policy { return control.NewAIMD() }

// ErrBadConfig reports an invalid Config, matched with errors.Is.
var ErrBadConfig = errors.New("minesweeper: invalid config")

// Validate checks the configuration for nonsense values and returns an error
// wrapping ErrBadConfig describing the first problem found. NewProcess calls
// it; callers constructing configs programmatically can call it early.
//
// Scheme must be one of the Scheme constants. Zero values mean "use the
// default" and always validate. Explicit values must make sense:
// SweepThreshold is a fraction in (0, 1] (the quarantine can never exceed
// the heap that contains it, so a larger value would silently disable
// sweeping — ask for that explicitly with 1), Helpers and BufferCap cannot
// be negative, UnmappedFactor below 1 would re-sweep permanently (the paper
// uses 9), and MemoryBudget/Controller require one of the four MineSweeper
// schemes. The float knobs must be finite: every comparison with NaN is
// false, so a NaN threshold would silently switch its trigger off, and so
// would an infinite UnmappedFactor or PauseThreshold.
func (c Config) Validate() error {
	if !c.Scheme.Valid() {
		return fmt.Errorf("%w: unknown Scheme %v", ErrBadConfig, c.Scheme)
	}
	if math.IsNaN(c.SweepThreshold) || c.SweepThreshold < 0 || c.SweepThreshold > 1 {
		return fmt.Errorf("%w: SweepThreshold %v outside (0, 1] (0 = default 0.15)",
			ErrBadConfig, c.SweepThreshold)
	}
	if c.Helpers < 0 {
		return fmt.Errorf("%w: negative Helpers %d (0 = default %d)",
			ErrBadConfig, c.Helpers, 6)
	}
	if c.BufferCap < 0 {
		return fmt.Errorf("%w: negative BufferCap %d (0 = default)",
			ErrBadConfig, c.BufferCap)
	}
	if c.UnmappedFactor != 0 && c.UnmappedFactor < 1 {
		return fmt.Errorf("%w: UnmappedFactor %v below 1 (0 = default 9; values under 1 would trigger permanent re-sweeping)",
			ErrBadConfig, c.UnmappedFactor)
	}
	if math.IsNaN(c.UnmappedFactor) || math.IsInf(c.UnmappedFactor, 0) {
		return fmt.Errorf("%w: UnmappedFactor %v not finite", ErrBadConfig, c.UnmappedFactor)
	}
	if math.IsNaN(c.PauseThreshold) || math.IsInf(c.PauseThreshold, 0) {
		return fmt.Errorf("%w: PauseThreshold %v not finite (0 = default, negative disables)",
			ErrBadConfig, c.PauseThreshold)
	}
	if c.MemoryBudget > 0 && !c.Scheme.IsMineSweeper() {
		return fmt.Errorf("%w: MemoryBudget set but scheme %v has no sweeps to govern",
			ErrBadConfig, c.Scheme)
	}
	if c.Controller != nil && !c.Scheme.IsMineSweeper() {
		return fmt.Errorf("%w: Controller set but scheme %v has no sweeps to govern",
			ErrBadConfig, c.Scheme)
	}
	return nil
}

// Stats is a snapshot of a Process's memory-management statistics.
type Stats struct {
	// Allocated is live application bytes.
	Allocated uint64
	// Quarantined is freed-but-not-yet-released bytes (mapped + unmapped).
	Quarantined uint64
	// QuarantinedUnmapped is the unmapped portion of Quarantined.
	QuarantinedUnmapped uint64
	// RSS is the resident footprint of the simulated process, excluding
	// allocator metadata.
	RSS uint64
	// MetaBytes estimates allocator and quarantine metadata.
	MetaBytes uint64
	// Mallocs and Frees count completed operations at the substrate.
	Mallocs, Frees uint64
	// Sweeps counts completed sweep or marking passes.
	Sweeps uint64
	// FailedFrees counts quarantined allocations kept back by a sweep.
	FailedFrees uint64
	// ReleasedFrees counts quarantined allocations released by sweeps.
	ReleasedFrees uint64
	// DoubleFrees counts absorbed double frees.
	DoubleFrees uint64
	// BytesSwept is the total memory examined by sweeps.
	BytesSwept uint64
	// SweeperBusy is background sweeper CPU time in nanoseconds.
	SweeperBusy uint64
	// STWTime is stop-the-world time in nanoseconds.
	STWTime uint64
	// PauseTime is allocation-pause time in nanoseconds (§5.7).
	PauseTime uint64
	// UAFFaults counts memory accesses that faulted — use-after-free
	// attempts the scheme turned into clean faults.
	UAFFaults uint64
}
