// Package core implements MineSweeper itself: a drop-in layer between the
// application and the memory allocator that intercepts free(), quarantines
// allocations, and releases them only once a linear sweep of program memory
// demonstrates that no (dangling) pointers to them remain (§3).
//
// The layer implements every mechanism of the paper:
//
//   - free() interception with quarantining and double-free de-duplication
//     via a shadow map of entries (§3);
//   - zero-filling freed memory, which flattens the quarantine reference
//     graph and breaks circular dependencies so a linear sweep suffices
//     instead of a transitive marking procedure (§4.1);
//   - unmapping the physical pages of large quarantined allocations, with the
//     adapted sweep trigger for unmapped memory (§4.2);
//   - fully concurrent and mostly concurrent (soft-dirty stop-the-world
//     re-scan) sweeping (§4.3);
//   - parallel sweeping with a main sweeper plus helper workers that also
//     split the quarantine recycle phase (§4.4);
//   - allocator fragmentation management: extent hooks that decommit and
//     commit instead of purge/demand-fault, plus a full allocator purge after
//     every sweep (§4.5);
//   - pausing allocation briefly when the sweep cannot keep up with an
//     extreme allocation rate (§5.7).
//
// Every mechanism has a Config switch so the paper's ablation studies
// (Figures 15-17) can be reproduced by turning them off one at a time.
package core

import (
	"errors"
	"fmt"
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"minesweeper/internal/alloc"
	"minesweeper/internal/control"
	"minesweeper/internal/events"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
	"minesweeper/internal/quarantine"
	"minesweeper/internal/shadow"
	"minesweeper/internal/sweep"
	"minesweeper/internal/telemetry"
)

// Mode selects how sweeps are scheduled and synchronised.
type Mode int

// Sweep modes.
const (
	// FullyConcurrent sweeps run entirely on background threads with no
	// stop-the-world; allocations quarantined after a sweep starts are
	// only eligible for the next sweep (§4.3). The paper's default.
	FullyConcurrent Mode = iota
	// MostlyConcurrent adds a brief stop-the-world re-scan of pages
	// modified during the concurrent pass, matching MarkUs's guarantees
	// (§4.3, §5.3).
	MostlyConcurrent
	// Synchronous performs the whole sweep on the allocating thread (the
	// pre-concurrency ablation configuration of Figure 15).
	Synchronous
)

// String returns the mode's name.
func (m Mode) String() string {
	switch m {
	case FullyConcurrent:
		return "fully-concurrent"
	case MostlyConcurrent:
		return "mostly-concurrent"
	case Synchronous:
		return "synchronous"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ZeroMode is a compatibility stub: zero-on-free (§4.1) always runs inside
// free(), and New rejects every value but ZeroImmediate.
type ZeroMode int

const (
	// ZeroImmediate zeroes inside free() (the paper's semantics; the only
	// accepted value).
	ZeroImmediate ZeroMode = iota
	// ZeroDeferred is retired: New returns an error for it.
	ZeroDeferred
)

// Config controls MineSweeper. The zero value is NOT usable; start from
// DefaultConfig.
type Config struct {
	// Mode selects sweep scheduling.
	Mode Mode
	// World pauses mutator threads for MostlyConcurrent mode. If nil, the
	// stop-the-world re-scan still runs but without stopping mutators
	// (acceptable for tests; real runs supply the simulator's world).
	World sweep.StopTheWorld
	// RescanBudgetPages bounds the dirty-page set handed to the
	// stop-the-world re-scan: while more pages than this are dirty, the
	// sweeper runs extra concurrent pre-clean rounds (test-and-clear
	// dirty re-scans, at most maxPreCleanRounds) before stopping the
	// world. Zero or negative disables pre-cleaning; only meaningful in
	// MostlyConcurrent mode. Governed heaps steer this knob through the
	// control plane.
	RescanBudgetPages int

	// SweepThreshold triggers a sweep when mapped quarantined bytes
	// (minus failed frees) exceed this fraction of the heap (minus failed
	// frees). The paper uses 0.15 (§3.2).
	SweepThreshold float64
	// UnmappedFactor triggers a sweep when unmapped quarantined bytes
	// exceed this multiple of the program's resident footprint; the paper
	// uses 9 (§4.2).
	UnmappedFactor float64
	// PauseThreshold pauses allocating threads when mapped quarantined
	// bytes (minus failed frees) exceed this fraction of the heap,
	// trading slowdown for bounded memory under extreme allocation rates
	// (§5.7). Zero disables pausing.
	PauseThreshold float64
	// Helpers is the number of helper sweep threads besides the main
	// sweeper (6 in the paper, §4.4).
	Helpers int
	// BufferCap is the thread-local quarantine buffer capacity.
	BufferCap int

	// Optimisation and partial-version switches (Figures 15-17).

	// Quarantine enables quarantining at all. When false, free() forwards
	// to the allocator (after optional zero/unmap-remap), reproducing the
	// "base overheads" and "unmapping + zeroing" partial versions (§5.5).
	Quarantine bool
	// Zeroing zero-fills memory in free() (§4.1).
	Zeroing bool
	// ZeroMode must be ZeroImmediate (the zero value); New rejects any
	// other value. Kept so existing configs compile.
	ZeroMode ZeroMode
	// Unmapping releases physical pages of large quarantined allocations
	// (§4.2).
	Unmapping bool
	// Sweeping enables the marking pass and shadow-map filtering. When
	// false, sweeps release every quarantined allocation unchecked (the
	// "quarantining"/"concurrency" partial versions, §5.5).
	Sweeping bool
	// FailedFrees keeps allocations with discovered pointers in
	// quarantine. When false, sweeps deallocate regardless (the "sweep"
	// partial version, §5.5).
	FailedFrees bool
	// Purging triggers a full allocator purge after every sweep (§4.5).
	Purging bool
	// DebugDoubleFree reports double frees as errors instead of absorbing
	// them silently (the paper's debug mode, §3). Each thread then gets a
	// one-entry ring that drains on every free, so the duplicate is known
	// before free returns; BufferCap is ignored.
	DebugDoubleFree bool

	// Control, when non-nil, is the adaptive control plane: the heap reads
	// its effective knobs (sweep threshold, unmapped factor, pause brake,
	// helper count) instead of the frozen config fields above, and feeds an
	// observation back after every sweep. The plane's base knobs should
	// be this config's Knobs(); a Static-policy plane then behaves
	// bit-for-bit like a nil one. Nil means ungoverned (the seed
	// behaviour).
	Control *control.Plane
}

// Knobs returns the control-plane knobs this configuration runs with: what an
// ungoverned heap reads, and the base a governing plane should start from
// and relax back to.
func (c Config) Knobs() control.Knobs {
	return control.Knobs{
		SweepThreshold:    c.SweepThreshold,
		UnmappedFactor:    c.UnmappedFactor,
		PauseThreshold:    c.PauseThreshold,
		Helpers:           c.Helpers,
		RescanBudgetPages: c.RescanBudgetPages,
	}
}

// DefaultConfig returns the paper's default configuration: fully concurrent,
// 15% sweep threshold, 9x unmapped factor, 6 helpers, all optimisations on.
func DefaultConfig() Config {
	return Config{
		Mode:              FullyConcurrent,
		RescanBudgetPages: DefaultRescanBudgetPages,
		SweepThreshold:    0.15,
		UnmappedFactor:    9.0,
		PauseThreshold:    3.0,
		Helpers:           sweep.DefaultHelpers,
		BufferCap:         quarantine.DefaultBufferCap,
		Quarantine:        true,
		Zeroing:           true,
		Unmapping:         true,
		Sweeping:          true,
		FailedFrees:       true,
		Purging:           true,
	}
}

// unmapMinBytes is the minimum allocation size worth a decommit syscall pair.
const unmapMinBytes = mem.PageSize

// quiescer is optionally implemented by the World: threads blocked in an
// allocation pause mark themselves quiescent so they do not stall a
// stop-the-world.
type quiescer interface {
	BeginQuiescent()
	EndQuiescent()
}

// DefaultRescanBudgetPages is the default dirty-page budget for the
// stop-the-world re-scan (Config.RescanBudgetPages). One dirty page costs the
// re-scan a word-by-word scan of PageSize bytes, measured at 1–3 µs per page
// on a shared 2-CPU x86-64 host, where 512 pages admit re-scans of 0.5–1.5 ms.
// The budget makes pre-clean rounds rare for ordinary write rates; it does
// not by itself keep the window under a millisecond.
const DefaultRescanBudgetPages = 512

// maxPreCleanRounds caps the concurrent pre-clean passes per sweep. Each
// round shrinks the dirty set only if the sweeper consumes dirty pages faster
// than mutators produce them; past a couple of rounds the set has either
// converged under the budget or reached the mutators' steady-state write
// footprint, which more rounds cannot shrink.
const maxPreCleanRounds = 2

// maxStopRetries caps the pause aborts per sweep (see finishPipelinedMark):
// a stop that freezes more dirty pages than the budget is abandoned, the
// backlog consumed concurrently, and the stop retried. One abort absorbs the
// common case — a scheduler gap between the last pre-clean round and the stop
// letting mutators dirty a burst — and the second keeps a pathological burst
// from forcing an oversized pause; after that the scan proceeds regardless so
// a write-storm cannot starve the sweep.
const maxStopRetries = 2

// sweepCheckInterval is how many quarantining frees a thread performs between
// sweep-trigger evaluations. The trigger compares four atomic counters plus
// the space's RSS (§3.2, §4.2) — cheap, but it was a fifth of the seed's
// free() fast path. Checking every N frees (and on every buffer flush, and
// immediately after unmapping a large allocation) bounds the quarantine
// overshoot to N small frees while removing the loads from the common case.
const sweepCheckInterval = 16

// threadState is MineSweeper's per-mutator-thread state.
type threadState struct {
	tbuf   *quarantine.ThreadBuffer
	tid    alloc.ThreadID // the ID RegisterThread returned
	subTid alloc.ThreadID // the substrate's ID for this thread
	// drainMu serialises ring drains. The ring is otherwise owner-thread-only,
	// but the mostly-concurrent sweeper drains every ring inside its
	// stop-the-world window, and a thread that is not parked at a safepoint —
	// one exiting through UnregisterThread, or any thread when no World is
	// attached — could drain the same buffer concurrently. Uncontended in
	// every fast path (the owner takes it only at its amortised drain tick,
	// the sweeper once per sweep).
	drainMu sync.Mutex
	// freesSinceCheck counts quarantining frees since the last
	// sweep-trigger evaluation. Owner-thread only, like tbuf.
	freesSinceCheck int
	// mallocsSincePause likewise amortises the allocation-side pause check
	// (three atomic loads per Malloc otherwise). Owner-thread only.
	mallocsSincePause int
	// telMallocs/telFrees are the malloc/free sampling countdown ticks
	// (see Heap.sample). Owner-thread only.
	telMallocs uint64
	telFrees   uint64
	// evRing is this thread's flight-recorder ring (nil when events are
	// detached). Loaded only on already-amortised or already-sampled paths
	// — drains, pauses, the telemetry-sampled op — never on the bare hot
	// path.
	evRing atomic.Pointer[events.Ring]
}

// Heap is the MineSweeper-protected heap: alloc.Allocator over a jemalloc
// substrate.
type Heap struct {
	cfg   Config
	sub   alloc.Substrate
	space *mem.AddressSpace
	marks *shadow.Bitmap
	q     *quarantine.Quarantine
	sw    *sweep.Sweeper
	// ctl is the adaptive control plane (nil = ungoverned). Written once at
	// construction; its knobs are read through one atomic load on the
	// amortised trigger/pause paths and at sweep boundaries.
	ctl *control.Plane

	threads  atomic.Pointer[[]*threadState]
	threadMu sync.Mutex

	// Sweeper machinery.
	sweepReq    chan struct{}
	stop        chan struct{}
	wg          sync.WaitGroup
	sweepMu     sync.Mutex // serialises sweeps (Synchronous vs background)
	genMu       sync.Mutex
	genCond     *sync.Cond
	sweepGen    uint64
	recycleTids []alloc.ThreadID // one registered jemalloc thread per sweep worker

	// Statistics.
	sweeps          atomic.Uint64
	failedFrees     atomic.Uint64
	releasedFrees   atomic.Uint64
	lateDoubleFrees atomic.Uint64
	stwNanos        atomic.Int64
	pauseNanos      atomic.Int64

	// Telemetry. tel is nil when disabled; only the recorder (and the
	// attach code) loads it, once per timed event, so the disabled cost is
	// a single predictable branch. trigReason latches the first cause that
	// requested the currently pending sweep (values are
	// telemetry.TriggerReason+1; zero means none, i.e. a forced sweep).
	tel        atomic.Pointer[telemetry.Registry]
	trigReason atomic.Uint32
	// drainHist is the quarantine_drain_ns histogram drains project into
	// (registered by SetTelemetry; nil otherwise).
	drainHist atomic.Pointer[telemetry.Histogram]

	// Flight recorder (internal/events). evt is nil when detached — the
	// same one-pointer-load-and-branch discipline as tel. evtSweep caches
	// the sweeper's ring; evLevel remembers the last governor level the
	// sweeper saw (guarded by sweepMu) so level transitions become events
	// and entering Critical trips a flight dump.
	evt      atomic.Pointer[events.Recorder]
	evtSweep atomic.Pointer[events.Ring]
	evLevel  control.Level
}

var _ alloc.Allocator = (*Heap)(nil)

// New builds a MineSweeper heap over space with a jemalloc substrate created
// internally from jcfg — the paper's default pairing. jcfg.Hooks see every
// extent commit and decommit; a decommitted page's residency lives in mem,
// where sweeps and CheckInvariants read it.
func New(space *mem.AddressSpace, cfg Config, jcfg jemalloc.Config) (*Heap, error) {
	h, err := newHeap(space, cfg)
	if err != nil {
		return nil, err
	}
	return h.attach(jemalloc.New(space, jcfg)), nil
}

// NewWithSubstrate builds MineSweeper over any allocator substrate (§7: the
// drop-in layer "can be easily integrated with any allocator" — the Scudo
// variant uses this entry point).
func NewWithSubstrate(space *mem.AddressSpace, cfg Config, sub alloc.Substrate) (*Heap, error) {
	h, err := newHeap(space, cfg)
	if err != nil {
		return nil, err
	}
	return h.attach(sub), nil
}

func newHeap(space *mem.AddressSpace, cfg Config) (*Heap, error) {
	if cfg.ZeroMode != ZeroImmediate {
		return nil, fmt.Errorf("core: ZeroMode %d unsupported: zero-on-free runs only inside free() (ZeroImmediate)", int(cfg.ZeroMode))
	}
	h := &Heap{
		cfg:      cfg,
		space:    space,
		marks:    shadow.New(),
		q:        quarantine.New(),
		ctl:      cfg.Control,
		sweepReq: make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	h.genCond = sync.NewCond(&h.genMu)
	return h, nil
}

// attach finalises construction once the substrate exists.
func (h *Heap) attach(sub alloc.Substrate) *Heap {
	cfg := h.cfg
	space := h.space
	marks := h.marks
	h.sub = sub

	h.sw = sweep.New(space, marks, cfg.Helpers)

	// Register one substrate thread per sweep worker so the parallel
	// recycle phase can free without sharing tcaches.
	workers := h.sw.Workers()
	h.recycleTids = make([]alloc.ThreadID, workers)
	for i := range h.recycleTids {
		h.recycleTids[i] = h.sub.RegisterThread()
	}

	empty := make([]*threadState, 0)
	h.threads.Store(&empty)

	if cfg.Mode != Synchronous {
		h.wg.Add(1)
		go h.sweeperLoop()
	}
	return h
}

// SetTelemetry attaches (or, with nil, detaches) a telemetry registry. Safe
// to call at any time, including while mutators run: the hot paths read the
// registry through one atomic pointer. Attaching registers the quarantine
// and sweep gauges, plus per-arena-shard occupancy when the substrate is the
// jemalloc heap.
func (h *Heap) SetTelemetry(reg *telemetry.Registry) {
	h.tel.Store(reg)
	if reg == nil {
		h.drainHist.Store(nil)
		return
	}
	hist := telemetry.NewHistogram("quarantine_drain_ns", "ns", telemetry.DefaultHistShards)
	reg.RegisterHistogram(hist)
	h.drainHist.Store(hist)
	reg.RegisterGauge("quarantine_entries", h.q.Entries)
	// Entries sitting in thread-private rings, not yet published to the
	// membership set: occupancy is published at drains and op ticks, so the
	// gauge lags true occupancy by at most one ring per thread.
	reg.RegisterGauge("quarantine_ring_entries", func() uint64 {
		var sum uint64
		for _, ts := range *h.threads.Load() {
			if ts != nil {
				sum += uint64(ts.tbuf.Occupancy())
			}
		}
		return sum
	})
	reg.RegisterGauge("quarantine_bytes", h.q.Bytes)
	reg.RegisterGauge("quarantine_unmapped_bytes", h.q.UnmappedBytes)
	reg.RegisterGauge("quarantine_failed_bytes", h.q.FailedBytes)
	reg.RegisterGauge("quarantine_epoch", h.q.Epoch)
	// Age of the oldest pending free, in sweep epochs: how long work has
	// been waiting for the sweeper.
	reg.RegisterGauge("quarantine_age_epochs", func() uint64 {
		return h.q.Epoch() - h.q.OldestPendingEpoch()
	})
	reg.RegisterGauge("sweep_pages_scanned_total", h.sw.PagesSwept)
	reg.RegisterGauge("sweep_zero_skipped_bytes_total", h.sw.ZeroSkippedBytes)
	// Pages the sweep dismissed because its previous read found no pointer
	// in them and nothing has been stored there since.
	reg.RegisterGauge("sweep_ptr_free_pages_total", h.sw.PtrFreePages)
	// Known-zero map economics: pages the sweep dismissed without touching
	// their memory, and bytes the zeroing paths elided because the map
	// already knew them zero.
	reg.RegisterGauge("sweep_known_zero_pages_total", h.sw.KnownZeroPages)
	reg.RegisterGauge("zero_elided_bytes_total", h.space.ZeroElidedBytes)
	if h.ctl != nil {
		reg.AttachGovernor(h.ctl)
		// Effective knob gauges: float knobs scaled to integers
		// (basis points / hundredths) so they fit the uint64 gauge type.
		reg.RegisterGauge("governor_pressure_level", func() uint64 {
			return uint64(h.ctl.Level())
		})
		reg.RegisterGauge("governor_sweep_threshold_bp", func() uint64 {
			return uint64(h.ctl.Knobs().SweepThreshold * 10000)
		})
		reg.RegisterGauge("governor_unmapped_factor_x100", func() uint64 {
			return uint64(h.ctl.Knobs().UnmappedFactor * 100)
		})
		reg.RegisterGauge("governor_pause_threshold_x100", func() uint64 {
			return uint64(h.ctl.Knobs().PauseThreshold * 100)
		})
		reg.RegisterGauge("governor_helpers", func() uint64 {
			return uint64(h.ctl.Knobs().Helpers)
		})
		reg.RegisterGauge("governor_decisions_total", func() uint64 {
			return h.ctl.Ring().Total()
		})
	}
	if jh, ok := h.sub.(*jemalloc.Heap); ok {
		for i := 0; i < jh.NumArenas(); i++ {
			reg.RegisterGauge(fmt.Sprintf("arena_shard%d_live_regs", i), func() uint64 {
				return uint64(jh.ShardStats(i).CurRegs)
			})
			reg.RegisterGauge(fmt.Sprintf("arena_shard%d_extents", i), func() uint64 {
				return uint64(jh.ShardStats(i).Extents)
			})
		}
	}
}

// SetEvents attaches (or, with nil, detaches) a flight-recorder. Safe to
// call at any time: instrumented paths read the recorder and rings through
// atomic pointers, exactly like SetTelemetry. Attaching creates the
// sweeper's ring plus one ring per registered thread; threads registered
// later get theirs in RegisterThread.
func (h *Heap) SetEvents(rec *events.Recorder) {
	if rec == nil {
		h.evt.Store(nil)
		h.evtSweep.Store(nil)
		for _, ts := range *h.threads.Load() {
			if ts != nil {
				ts.evRing.Store(nil)
			}
		}
		return
	}
	h.evtSweep.Store(rec.Ring("sweeper"))
	h.threadMu.Lock()
	for i, ts := range *h.threads.Load() {
		if ts != nil {
			ts.evRing.Store(rec.Ring(fmt.Sprintf("thread-%d", i)))
		}
	}
	h.threadMu.Unlock()
	h.evt.Store(rec)
}

// Events returns the attached flight-recorder, or nil.
func (h *Heap) Events() *events.Recorder { return h.evt.Load() }

// tripFlight fires the flight recorder for cause; if the trip is accepted
// (rate limit, sink attached), a KindTrip instant lands on the sweeper ring
// so later dumps and the live view show when dumps were taken.
func (h *Heap) tripFlight(cause events.TripCause) {
	rec := h.evt.Load()
	if rec == nil || !rec.Trip(cause) {
		return
	}
	if rg := h.evtSweep.Load(); rg != nil {
		rg.Emit(events.KindTrip, uint64(cause), 0)
	}
}

// String returns the scheme name.
func (h *Heap) String() string {
	if h.cfg.Mode == MostlyConcurrent {
		return "minesweeper-mostly"
	}
	return "minesweeper"
}

// Substrate returns the underlying allocator (tests, metrics).
func (h *Heap) Substrate() alloc.Substrate { return h.sub }

// Control returns the heap's control plane, or nil when ungoverned.
func (h *Heap) Control() *control.Plane { return h.ctl }

// knobs returns the effective policy knobs: the governed values when a
// control plane is attached (one atomic load), the frozen config otherwise.
func (h *Heap) knobs() control.Knobs {
	if h.ctl != nil {
		return h.ctl.Knobs()
	}
	return h.cfg.Knobs()
}

// budget returns the governed memory budget, or 0 (unbounded).
func (h *Heap) budget() uint64 {
	if h.ctl != nil {
		return h.ctl.Budget()
	}
	return 0
}

// Quarantined returns mapped quarantined bytes.
func (h *Heap) Quarantined() uint64 { return h.q.Bytes() }

// RegisterThread implements alloc.Allocator.
func (h *Heap) RegisterThread() alloc.ThreadID {
	subTid := h.sub.RegisterThread()
	h.threadMu.Lock()
	defer h.threadMu.Unlock()
	old := *h.threads.Load()
	nw := make([]*threadState, len(old)+1)
	copy(nw, old)
	ringCap := h.cfg.BufferCap
	if h.cfg.DebugDoubleFree {
		ringCap = 1
	}
	ts := &threadState{
		tbuf:   quarantine.NewThreadBuffer(h.q, ringCap),
		tid:    alloc.ThreadID(len(old)),
		subTid: subTid,
	}
	if rec := h.evt.Load(); rec != nil {
		ts.evRing.Store(rec.Ring(fmt.Sprintf("thread-%d", len(old))))
	}
	nw[len(old)] = ts
	h.threads.Store(&nw)
	return ts.tid
}

// UnregisterThread implements alloc.Allocator. The dead thread's state is
// removed from the threads slice (copy-on-write, slot nilled so other IDs
// keep their positions); its buffer was flushed, so nothing is lost, and the
// state — including the ThreadBuffer — becomes collectable instead of living
// in the slice forever.
func (h *Heap) UnregisterThread(tid alloc.ThreadID) {
	ts := h.threadState(tid)
	if ts == nil {
		return
	}
	h.drain(ts)
	h.sub.UnregisterThread(ts.subTid)
	h.threadMu.Lock()
	defer h.threadMu.Unlock()
	old := *h.threads.Load()
	if int(tid) < len(old) && old[tid] == ts {
		nw := make([]*threadState, len(old))
		copy(nw, old)
		nw[tid] = nil
		h.threads.Store(&nw)
	}
}

// errUnregistered is the error of a Malloc or Free on a thread ID that
// RegisterThread did not return or that has been unregistered.
var errUnregistered = errors.New("core: thread not registered")

func (h *Heap) threadState(tid alloc.ThreadID) *threadState {
	ts := *h.threads.Load()
	if int(tid) < 0 || int(tid) >= len(ts) {
		return nil
	}
	return ts[tid]
}

// Malloc implements alloc.Allocator. If the quarantine has overwhelmed the
// sweeper, the call briefly pauses until a sweep completes (§5.7). The pause
// check is amortised like the sweep-trigger check: the threshold is an
// emergency brake, so evaluating it every sweepCheckInterval mallocs delays
// the brake by at most a handful of small allocations.
//
// With telemetry attached, one call in SamplePeriod is a timed event: its
// latency — including any §5.7 pause — lands in the malloc histogram on the
// thread's stripe and, with events attached, as a KindAlloc on the thread's
// ring. Detached, the only cost is the pointer load and branch in sample.
//
// tid must be an ID RegisterThread returned and UnregisterThread has not
// retired; any other ID is an error.
func (h *Heap) Malloc(tid alloc.ThreadID, size uint64) (uint64, error) {
	ts := h.threadState(tid)
	if ts == nil {
		return 0, fmt.Errorf("%w: malloc on thread %d", errUnregistered, tid)
	}
	if !h.sample(&ts.telMallocs) {
		return h.malloc(ts, size)
	}
	r := h.threadRecorder(ts)
	start := r.now()
	a, err := h.malloc(ts, size)
	r.end(start, events.KindAlloc, size, 0)
	return a, err
}

func (h *Heap) malloc(ts *threadState, size uint64) (uint64, error) {
	if ts.mallocsSincePause++; ts.mallocsSincePause >= sweepCheckInterval {
		ts.mallocsSincePause = 0
		h.maybePause(ts)
	}
	return h.sub.Malloc(ts.subTid, size)
}

// pauseFloorBytes is the minimum quarantine size for the §5.7 pause to
// engage at all. Below it, even an infinite quarantine:heap ratio costs a
// bounded, negligible amount of memory.
const pauseFloorBytes = 1 << 20

// sweepFloorBytes is the minimum sweepable quarantine (mapped bytes minus
// failed frees) for the §3.2 threshold trigger to fire. A sweep costs a
// whole-heap scan regardless of how little it reclaims, so on a tiny heap —
// where any quarantine at all exceeds 15% — the ratio alone would re-trigger
// after a handful of frees and the fixed scan cost would dwarf the reclaim.
// The floor lets the quarantine accumulate a worthwhile batch first: any
// deliberate churn crosses it within tens of frees, and on any realistically
// sized heap the 15% line sits far above it. The unmapped-factor trigger
// compares against resident memory, which bounds its cost by construction.
const sweepFloorBytes = 32 << 10

// maybePause blocks the allocating thread while the quarantine is extremely
// large relative to the heap (§5.7) or, on a governed heap, while resident
// memory sits over the configured budget with sweepable quarantine to
// reclaim — either way letting the sweeper catch up.
func (h *Heap) maybePause(ts *threadState) {
	if h.cfg.Mode == Synchronous || !h.cfg.Quarantine {
		return
	}
	if h.cfg.PauseThreshold <= 0 && h.budget() == 0 {
		return
	}
	for {
		qb := h.q.Bytes() - min64(h.q.Bytes(), h.q.FailedBytes())
		// Both brakes bound memory, so a quarantine that is small in
		// absolute terms never warrants a pause: there is nothing worth
		// reclaiming, and waiting for a sweep could not help. This also
		// guarantees the budget brake cannot livelock a program whose
		// live set alone exceeds the budget.
		if qb <= pauseFloorBytes {
			return
		}
		k := h.knobs()
		ratioHit := false
		if k.PauseThreshold > 0 {
			// The substrate still counts quarantined allocations as live
			// (they are not freed until a sweep releases them), so
			// subtract them — as Stats does — to get the application's
			// live heap. Against the raw substrate figure the quarantine
			// is a summand of both sides and no threshold >= 1 could ever
			// fire, leaving the §5.7 brake dead and the quarantine
			// unbounded whenever the sweeper thread is starved of CPU.
			heapB := h.sub.AllocatedBytes()
			heapB -= min64(heapB, h.q.Bytes()+h.q.UnmappedBytes())
			ratioHit = float64(qb) > k.PauseThreshold*float64(heapB+mem.PageSize)
		}
		budget := h.budget()
		budgetHit := budget > 0 && h.space.RSS() > budget
		if !ratioHit && !budgetHit {
			return
		}
		reason := telemetry.TriggerPause
		if !ratioHit {
			reason = telemetry.TriggerBudget
		}
		// Flush our buffer so our frees are sweepable, then wait for a
		// sweep to finish. While waiting, the thread is quiescent: it
		// must not block a mostly-concurrent stop-the-world.
		h.drain(ts)
		r := h.threadRecorder(ts)
		start := time.Now()
		r.emit(start, events.KindPauseBegin, uint64(reason), 0)
		qz, _ := h.cfg.World.(quiescer)
		if qz != nil {
			qz.BeginQuiescent()
		}
		h.noteTrigger(reason)
		h.genMu.Lock()
		gen := h.sweepGen
		h.requestSweep()
		for h.sweepGen == gen {
			h.genCond.Wait()
		}
		h.genMu.Unlock()
		if qz != nil {
			qz.EndQuiescent()
		}
		h.pauseNanos.Add(r.end(start, events.KindPauseEnd, 0, 0))
	}
}

// noteTrigger latches the cause of the next sweep (first cause wins; the
// record is cleared when the sweep runs). Harmless without telemetry — one
// uncontended CAS per trigger, and triggers are rare next to frees.
func (h *Heap) noteTrigger(r telemetry.TriggerReason) {
	h.trigReason.CompareAndSwap(0, uint32(r)+1)
}

// takeTrigger consumes the latched trigger cause for the sweep now running.
func (h *Heap) takeTrigger() telemetry.TriggerReason {
	if v := h.trigReason.Swap(0); v != 0 {
		return telemetry.TriggerReason(v - 1)
	}
	return telemetry.TriggerForced
}

// Free implements alloc.Allocator: the paper's free() interception. The
// substrate's Lookup validates and sizes the allocation, and the quarantine
// entry keeps only its base and size; the sweep's recycle phase frees by
// address, as the paper's layer does through jemalloc's public API (§3.2).
// Sampling is Malloc's: one call in SamplePeriod is a KindFree timed event
// carrying the freed size. tid must be registered, as for Malloc.
func (h *Heap) Free(tid alloc.ThreadID, addr uint64) error {
	ts := h.threadState(tid)
	if ts == nil {
		return fmt.Errorf("%w: free on thread %d", errUnregistered, tid)
	}
	if !h.sample(&ts.telFrees) {
		_, err := h.free(ts, addr)
		return err
	}
	r := h.threadRecorder(ts)
	start := r.now()
	size, err := h.free(ts, addr)
	r.end(start, events.KindFree, size, 0)
	return err
}

// free frees addr and returns its allocation's size (0 when addr is not an
// allocation's base).
func (h *Heap) free(ts *threadState, addr uint64) (uint64, error) {
	a, ok := h.sub.Lookup(addr)
	if !ok || a.Base != addr {
		if h.q.Contains(addr) {
			// Double free of a quarantined allocation whose lookup
			// raced; absorbed (idempotent).
			return 0, h.doubleFree(addr)
		}
		return 0, fmt.Errorf("%w: %#x", alloc.ErrInvalidFree, addr)
	}

	if !h.cfg.Quarantine {
		// Partial versions (§5.5): optional zero/unmap-remap, then
		// forward straight to the allocator.
		if h.cfg.Zeroing && !a.Large {
			_ = h.space.Zero(a.Base, a.Size)
		}
		if h.cfg.Unmapping && a.Large && a.Size >= unmapMinBytes {
			if err := h.sub.DecommitExtent(a.Base); err == nil {
				// Immediately remap, as the partial version does.
				_ = h.space.Commit(a.Base, a.Size, mem.ProtRW)
			}
		} else if h.cfg.Zeroing && a.Large {
			_ = h.space.Zero(a.Base, a.Size)
		}
		return a.Size, h.sub.Free(ts.subTid, addr)
	}

	// Every quarantined free goes through the thread's ring: free() touches
	// only thread-local state and everything shared is deferred to bulk
	// drains. In debug mode the ring holds one entry, so the drain below
	// runs on every free and reports whether this free was a duplicate.
	e := quarantine.NewEntry(a.Base, a.Size)
	// Large allocations that will be unmapped need no explicit zeroing: the
	// decommit discards their contents (and any pointers within). A double
	// free still waiting in a ring re-decommits harmlessly (DecommitExtent
	// is idempotent on an uncommitted extent) and loses membership insertion
	// at drain time.
	unmapped := false
	if h.cfg.Unmapping && a.Large && a.Size >= unmapMinBytes {
		if err := h.sub.DecommitExtent(a.Base); err == nil {
			e.SetUnmapped() // ring-resident: accounted at drain (§4.2)
			unmapped = true
		}
	}
	if h.cfg.Zeroing && !unmapped {
		_ = h.space.Zero(a.Base, a.Size)
	}

	full := ts.tbuf.Push(e) // thread-local append, no shared state
	ts.freesSinceCheck++
	// Amortised drain and sweep-trigger check: the ring drains at the
	// sweepCheckInterval tick once it reaches its watermark (or immediately
	// when full — small ring capacities), and the trigger is evaluated on
	// the same tick. Unmapping a large allocation moves its bytes to the
	// unmapped account wholesale, so that drain + trigger check (§4.2)
	// always happens immediately.
	if full || unmapped || ts.freesSinceCheck >= sweepCheckInterval {
		ts.freesSinceCheck = 0
		dups := 0
		if full || unmapped || ts.tbuf.NeedsDrain() {
			dups = h.drain(ts)
		} else {
			ts.tbuf.PublishOccupancy()
		}
		h.maybeTriggerSweep(ts)
		if dups > 0 {
			return a.Size, h.doubleFree(addr)
		}
	}
	return a.Size, nil
}

// drain publishes ts's ring to the global quarantine under the drain lock;
// every drain site uses it (see drainMu). A non-empty drain is one timed
// event — KindDrain (entries, ns) on the thread's ring and one
// quarantine_drain_ns sample — recorded by whichever goroutine drains: the
// owner at its tick or a quiesce point, or the sweeper inside its
// stop-the-world (the rings tolerate that foreign writer). It returns how
// many ring entries the drain rejected as double frees.
func (h *Heap) drain(ts *threadState) int {
	ts.drainMu.Lock()
	defer ts.drainMu.Unlock()
	n := uint64(ts.tbuf.Len())
	if n == 0 {
		return ts.tbuf.Drain()
	}
	r := h.threadRecorder(ts)
	start := r.now()
	dups := ts.tbuf.Drain()
	r.end(start, events.KindDrain, n, 0)
	return dups
}

// doubleFree accounts an absorbed double free, or reports it in debug mode.
func (h *Heap) doubleFree(addr uint64) error {
	if h.cfg.DebugDoubleFree {
		return fmt.Errorf("%w: %#x (quarantined)", alloc.ErrDoubleFree, addr)
	}
	return nil
}

// maybeTriggerSweep checks the two sweep triggers (§3.2, §4.2) — plus, on a
// governed heap, the memory-budget trigger — and requests a sweep when any
// fires. Governed heaps read the effective (steered) thresholds here; the
// check is already amortised to every sweepCheckInterval frees, so the extra
// atomic load is off the per-operation path.
func (h *Heap) maybeTriggerSweep(ts *threadState) {
	k := h.knobs()
	qb := h.q.Bytes()
	fb := h.q.FailedBytes()
	heapB := h.sub.AllocatedBytes()
	effQ := qb - min64(qb, fb)
	effH := heapB - min64(heapB, fb)
	reason := telemetry.TriggerThreshold
	trigger := effQ >= sweepFloorBytes &&
		float64(effQ) > k.SweepThreshold*float64(effH)
	if !trigger && k.UnmappedFactor > 0 {
		trigger = float64(h.q.UnmappedBytes()) > k.UnmappedFactor*float64(h.space.RSS())
		reason = telemetry.TriggerUnmapped
	}
	if !trigger {
		// Budget trigger: resident memory over the budget and enough
		// sweepable quarantine to make a sweep worthwhile. "Worthwhile"
		// scales with the budget (1/32nd, between the threshold trigger's
		// floor and the pause-brake floor): a heap whose live set alone
		// exceeds the budget does not sweep-storm, while a governed heap with
		// a budget of a few MiB can still reach the floor and let its
		// governor observe pressure.
		if b := h.budget(); b > 0 && h.space.RSS() > b {
			floor := max(min(b/32, pauseFloorBytes), sweepFloorBytes)
			if effQ > floor {
				trigger = true
				reason = telemetry.TriggerBudget
			}
		}
	}
	if !trigger {
		return
	}
	h.noteTrigger(reason)
	if h.cfg.Mode == Synchronous {
		// The sweep runs inline right now: our buffered frees must be in
		// the global list to be swept.
		h.drain(ts)
		h.runSweep()
		return
	}
	// Concurrent modes do NOT drain the ring here: the trigger fires on
	// every amortised check while the quarantine sits above threshold, and
	// draining each time would collapse the ring's watermark amortisation
	// back to tick-sized batches. Ring-resident entries are bounded (they
	// drain within one watermark's worth of frees) and are not counted in
	// effQ, so the trigger decision never depends on them.
	h.requestSweep()
}

// requestSweep signals the background sweeper (non-blocking; coalesces).
func (h *Heap) requestSweep() {
	select {
	case h.sweepReq <- struct{}{}:
	default:
	}
}

// sweeperLoop is the main sweeper thread.
func (h *Heap) sweeperLoop() {
	defer h.wg.Done()
	for {
		select {
		case <-h.stop:
			return
		case <-h.sweepReq:
			h.runSweep()
		}
	}
}

// stopWorld stops mutator threads (when a World is attached) and quiesces the
// per-thread quarantine rings: with every mutator parked at a safepoint the
// sweeper drains the rings itself, so frees buffered right up to the pause
// are published for the next lock-in and no ring ages across the window.
// Without a World the re-scan runs without stopping anyone (tests) and the
// rings are left to their owners.
func (h *Heap) stopWorld() {
	if h.cfg.World == nil {
		return
	}
	h.cfg.World.Stop()
	for _, ts := range *h.threads.Load() {
		if ts != nil {
			h.drain(ts)
		}
	}
}

// startWorld resumes mutators after stopWorld.
func (h *Heap) startWorld() {
	if h.cfg.World != nil {
		h.cfg.World.Start()
	}
}

// recorder is the one recording point of core: every timed site — a sweep
// phase, a stop-the-world window, a §5.7 pause, a ring drain, a sampled
// malloc or free — records through it, and it is the only code that knows
// about both sinks: the telemetry registry (latency histograms, per-sweep
// records) and a flight-recorder ring (MSEV events). A timed event is two
// clock readings, begin and end. The end reading stamps the event and yields
// the duration, which also lands in the histogram the event's kind maps to
// (hist): telemetry's latency histograms are a projection of the event kinds,
// and a span's End-Begin is the same number as the record's phase time. With
// both sinks detached, now and begin read no clock; the stop-the-world window
// and the pause, which Stats counts regardless, read their own start.
// MarkNanos is the one duration not taken here: it is the sweeper's own pass
// time, because the pipelined mark span also covers pre-clean and the
// re-scan.
type recorder struct {
	tel   *telemetry.Registry
	drain *telemetry.Histogram // quarantine_drain_ns (mutator recorders only)
	er    *events.Ring
	shard int // histogram stripe: the mutator's thread ID
	rec   telemetry.SweepRecord
}

// sweepRecorder returns the recorder of one sweep, writing to the sweeper's
// ring.
func (h *Heap) sweepRecorder() recorder {
	return recorder{tel: h.tel.Load(), er: h.evtSweep.Load()}
}

// threadRecorder returns the recorder of one mutator-side event of thread
// ts, writing to its ring.
func (h *Heap) threadRecorder(ts *threadState) recorder {
	return recorder{
		tel:   h.tel.Load(),
		drain: h.drainHist.Load(),
		er:    ts.evRing.Load(),
		shard: int(ts.tid),
	}
}

// sample is the countdown sampler of the malloc/free fast path: a live tick
// (> 1, meaning a registry armed it) decrements on the thread's own state —
// no shared access, not even the registry pointer load. Only the op that
// exhausts the tick (or finds it in the fresh/detached <= 1 state) loads the
// registry; with one attached, the op is sampled and the tick rearms from the
// current SamplePeriod. Sampled alloc/free events ride the same tick, so the
// unsampled hot path never sees the events layer.
func (h *Heap) sample(tick *uint64) bool {
	if *tick > 1 {
		*tick--
		return false
	}
	tel := h.tel.Load()
	if tel == nil {
		return false
	}
	*tick = tel.SamplePeriod()
	return true
}

// now is a timed event's begin reading: the zero Time, without reading the
// clock, when no sink is attached.
func (r *recorder) now() time.Time {
	if r.tel == nil && r.er == nil {
		return time.Time{}
	}
	return time.Now()
}

// begin opens a span: the begin reading, which also stamps k's event.
func (r *recorder) begin(k events.Kind, arg0, arg1 uint64) time.Time {
	t := r.now()
	if !t.IsZero() {
		r.emit(t, k, arg0, arg1)
	}
	return t
}

// end closes the timed event that began at start and returns its duration in
// ns; zero, without reading the clock, when start is the zero Time. The
// event carries the duration where its kind does (arg1 of a drain or sampled
// op, arg0 of a pause end), and the duration projects into hist(k).
func (r *recorder) end(start time.Time, k events.Kind, arg0, arg1 uint64) int64 {
	if start.IsZero() {
		return 0
	}
	t := time.Now()
	d := t.Sub(start).Nanoseconds()
	switch k {
	case events.KindAlloc, events.KindFree, events.KindDrain:
		arg1 = uint64(d)
	case events.KindPauseEnd:
		arg0 = uint64(d)
	}
	r.emit(t, k, arg0, arg1)
	if hist := r.hist(k); hist != nil {
		hist.RecordShard(r.shard, uint64(d))
	}
	return d
}

// hist maps an event kind to the latency histogram its durations project
// into; nil for a kind with none (sweep phases: the per-sweep record holds
// those) or with telemetry detached.
func (r *recorder) hist(k events.Kind) *telemetry.Histogram {
	if r.tel == nil {
		return nil
	}
	switch k {
	case events.KindAlloc:
		return r.tel.Malloc
	case events.KindFree:
		return r.tel.Free
	case events.KindDrain:
		return r.drain
	case events.KindPauseEnd:
		return r.tel.Pause
	case events.KindStwEnd:
		return r.tel.Stw
	}
	return nil
}

// emit puts one event stamped with the clock reading t on the ring.
func (r *recorder) emit(t time.Time, k events.Kind, arg0, arg1 uint64) {
	if r.er != nil {
		r.er.EmitAt(r.er.Nanos(t), k, arg0, arg1)
	}
}

// note puts one untimed instant, stamped now, on the ring.
func (r *recorder) note(k events.Kind, arg0, arg1 uint64) {
	if r.er != nil {
		r.er.Emit(k, arg0, arg1)
	}
}

// endSweep closes the sweep span opened at start and hands the finished
// record to telemetry.
func (r *recorder) endSweep(start time.Time) {
	r.rec.TotalNanos = r.end(start, events.KindSweepEnd, r.rec.Released, r.rec.Retained)
	if r.tel != nil {
		r.tel.ObserveSweep(r.rec)
	}
}

// recordStw closes the stop-the-world window opened at start, after the
// world restarted, and accounts it: the running total behind
// Stats.STWCycles, the sweep record's window duration (summed — a
// pause-abort retry gives a sweep several windows), and — the gate metric
// for the sub-millisecond pause bound — the exact (unsampled) stw
// histogram, which gets one entry per window. Always timed: STWCycles
// counts every window, sinks attached or not.
func (h *Heap) recordStw(r *recorder, start time.Time, scanned uint64) {
	d := r.end(start, events.KindStwEnd, scanned, 0)
	h.stwNanos.Add(d)
	r.rec.DirtyNanos += d
}

// addPass folds one marking pass's work figures into the sweep record. Dirty
// passes skip no pages, so their skip counts add nothing.
func (r *recorder) addPass(ps sweep.PassStats) {
	r.rec.PagesScanned += ps.PagesScanned
	r.rec.BytesScanned += ps.BytesScanned
	r.rec.BytesZeroSkipped += ps.ZeroSkippedBytes
	r.rec.PagesKnownZero += ps.KnownZeroPages
	r.rec.PagesPtrFree += ps.PtrFreePages
}

// preclean runs one concurrent pre-clean round — a take-and-scan of the
// pages dirty right now — as the span labelled round.
func (h *Heap) preclean(r *recorder, round int) {
	t := r.begin(events.KindPrecleanBegin, uint64(round), 0)
	cp := h.sw.Mark(sweep.DirtyTake)
	r.addPass(cp)
	r.rec.PrecleanPages += cp.PagesScanned
	r.rec.PrecleanNanos += r.end(t, events.KindPrecleanEnd, cp.PagesScanned, uint64(round))
}

// markPhase runs the configured marking pipeline for one sweep, filling the
// mark-related fields of the record. Caller holds sweepMu.
//
// The MostlyConcurrent pipeline (§4.3):
//
//  1. Snapshot-at-beginning: the lock-in that produced this sweep's work
//     list already happened, and ClearSoftDirty opens the write-tracking
//     window — every page mutators touch from here on is revisited, so a
//     pointer stored anywhere during the concurrent pass cannot be missed.
//  2. Concurrent mark (sweep.FullTake): the full-heap pass runs with
//     mutators live and takes the dirty bit of each page just before
//     reading it, so a page is dirty after the pass only if a store landed
//     after its read, or the pass skipped it (known-zero, pointer-free).
//  3. Concurrent pre-clean (sweep.DirtyTake): while more pages are dirty
//     than the re-scan budget, consume dirty pages without stopping
//     (test-and-clear, bounded rounds); each round shrinks the set the
//     pause must visit.
//  4. Stop-the-world re-scan (sweep.Dirty): quiesce thread rings and visit
//     only the pages still dirty. The pause scales with the mutators'
//     residual write rate, not heap size.
func (h *Heap) markPhase(r *recorder) {
	// In MostlyConcurrent mode the mark span covers the whole pipeline: the
	// concurrent full-heap pass, and the pre-clean rounds and the STW
	// re-scan nested inside it.
	t := r.begin(events.KindMarkBegin, 0, 0)
	pass := sweep.Full
	if h.cfg.Mode == MostlyConcurrent {
		h.space.ClearSoftDirty()
		pass = sweep.FullTake
	}
	ps := h.sw.Mark(pass)
	r.addPass(ps)
	r.rec.MarkNanos = ps.ElapsedNanos
	if pass == sweep.FullTake {
		h.finishPipelinedMark(r)
	}
	r.end(t, events.KindMarkEnd, r.rec.PagesScanned, r.rec.BytesScanned)
}

// finishPipelinedMark runs stages 3 and 4 of the pipeline — the concurrent
// pre-clean rounds and the stop-the-world dirty re-scan — against whatever
// pages are soft-dirty right now: after markPhase's full pass, the pages
// written since it read them and the pages it skipped. Split from markPhase
// so the pre-clean and re-scan accounting can be driven deterministically in
// tests (markPhase's ClearSoftDirty would wipe any dirtiness a test set up).
// Caller holds sweepMu.
//
// The stop is guarded by a retry loop (the CMS-style pause abort): mutators
// can dirty an unbounded number of pages in the scheduling gap between the
// last concurrent pre-clean round and the stop landing, and scanning that
// backlog inside the pause would put the tail right back at the mercy of the
// write rate times scheduler latency. So once the world is stopped the frozen
// dirty count — an O(pages/64) summary popcount — is checked against the
// budget; if it is over and retries remain, the world restarts immediately
// and the backlog is consumed concurrently before the next attempt. Each
// aborted window was still a real pause for the mutators, so it is recorded
// in the stw histogram like any other. The final attempt scans
// unconditionally, keeping termination guaranteed.
func (h *Heap) finishPipelinedMark(r *recorder) {
	budget := h.knobs().RescanBudgetPages
	if budget > 0 {
		for round := 0; round < maxPreCleanRounds; round++ {
			if h.sw.CountDirtyPages() <= uint64(budget) {
				break
			}
			h.preclean(r, round)
		}
	}
	for attempt := 0; ; attempt++ {
		// The window opens at the stop request: the clock reading before
		// stopWorld times the pause and stamps the stw span, whose Begin
		// event is emitted once the frozen dirty count it carries is known.
		start := time.Now()
		h.stopWorld()
		// The frozen dirty count: needed by the abort check, and the
		// events layer stamps it on the stw span (the popcount is
		// O(pages/64), nothing next to the stop itself).
		var dirty uint64
		if r.er != nil || (budget > 0 && attempt < maxStopRetries) {
			dirty = h.sw.CountDirtyPages()
		}
		r.emit(start, events.KindStwBegin, dirty, 0)
		if budget > 0 && attempt < maxStopRetries && dirty > uint64(budget) {
			r.note(events.KindStwAbort, dirty, uint64(budget))
			h.startWorld()
			h.recordStw(r, start, dirty)
			h.preclean(r, maxPreCleanRounds+attempt)
			continue
		}
		dp := h.sw.Mark(sweep.Dirty)
		r.addPass(dp)
		r.rec.DirtyPages = dp.PagesScanned
		h.startWorld()
		h.recordStw(r, start, dp.PagesScanned)
		// The anomaly the pipeline exists to prevent: the final attempt had
		// to scan an over-budget dirty set inside the pause. Trip the
		// flight recorder (after the world restarts — never extend the
		// pause for a dump).
		if budget > 0 && dp.PagesScanned > uint64(budget) {
			h.tripFlight(events.TripStwOverBudget)
		}
		return
	}
}

// runSweep performs one complete sweep: lock-in of the whole quarantine, mark
// (pipelined in MostlyConcurrent mode — see markPhase), filter-and-recycle,
// shadow clear, purge (§3.1, §4). With telemetry attached it emits one
// SweepRecord — trigger cause, per-phase durations and work figures — per
// sweep that had anything to do.
func (h *Heap) runSweep() {
	h.sweepMu.Lock()
	defer h.sweepMu.Unlock()

	r := h.sweepRecorder()
	reason := h.takeTrigger()
	locked := h.q.LockIn()
	if len(locked) > 0 {
		r.rec = telemetry.SweepRecord{
			Trigger:       reason,
			EntriesLocked: uint64(len(locked)),
			Workers:       h.sw.Workers(),
		}
		start := r.begin(events.KindSweepBegin, uint64(reason), uint64(len(locked)))
		if start.IsZero() && h.ctl != nil {
			start = time.Now() // the governor observes TotalNanos
		}
		if h.cfg.Sweeping {
			h.markPhase(&r)
		}
		t := r.begin(events.KindRecycleBegin, 0, 0)
		r.rec.Released, r.rec.Retained = h.filterAndRecycle(locked)
		r.rec.RecycleNanos = r.end(t, events.KindRecycleEnd, r.rec.Released, r.rec.Retained)
		if h.cfg.Sweeping {
			h.marks.ClearAll()
		}
		if h.cfg.Purging {
			t = r.begin(events.KindPurgeBegin, 0, 0)
			h.sub.PurgeAll()
			r.rec.PurgeNanos = r.end(t, events.KindPurgeEnd, 0, 0)
		}
		h.sweeps.Add(1)
		r.endSweep(start)
	}
	if h.ctl != nil {
		h.observeAndSteer(&r)
	}

	h.genMu.Lock()
	h.sweepGen++
	h.genMu.Unlock()
	h.genCond.Broadcast()
}

// observeAndSteer closes the control loop at the sweep boundary: it gathers
// the post-sweep heap state and the sweep's record (zero when the sweep had
// nothing to do) into a control.Inputs, lets the plane evaluate pressure and
// decide the next inter-sweep knob values, and applies the side of the
// decision the plane cannot apply itself — the sweep worker count.
// Caller holds sweepMu, which makes this the plane's single writer.
func (h *Heap) observeAndSteer(r *recorder) {
	heapB := h.sub.AllocatedBytes()
	q := h.q.Bytes() + h.q.UnmappedBytes()
	in := control.Inputs{
		LiveBytes:        heapB - min64(heapB, q),
		QuarantinedBytes: h.q.Bytes(),
		UnmappedBytes:    h.q.UnmappedBytes(),
		FailedBytes:      h.q.FailedBytes(),
		RSS:              h.space.RSS(),
		AgeEpochs:        h.q.Epoch() - h.q.OldestPendingEpoch(),
		SweepNanos:       r.rec.TotalNanos,
		Released:         r.rec.Released,
		Retained:         r.rec.Retained,
	}
	d, changed := h.ctl.Observe(in)
	// Events + flight triggers before the early-outs: level transitions are
	// events even when the knobs held still, entering Critical trips a
	// flight dump, and so does resident memory over the governed budget
	// (both evaluated here, the sweep boundary — the single writer).
	if lvl := h.ctl.Level(); lvl != h.evLevel {
		r.note(events.KindGovDecision, uint64(lvl), uint64(h.evLevel))
		if lvl == control.Critical {
			h.tripFlight(events.TripGovernorCritical)
		}
		h.evLevel = lvl
	}
	if b := h.ctl.Budget(); b > 0 && in.RSS > b {
		h.tripFlight(events.TripBudgetRSS)
	}
	if !changed {
		return
	}
	if d.After.Helpers == d.Before.Helpers {
		return
	}
	h.sw.SetHelpers(d.After.Helpers)
	// Grow the recycle-worker thread pool lazily: substrate threads are
	// registered only when a decision actually raises the worker count, so
	// an all-Static (or never-pressured) plane leaves the substrate state —
	// and therefore Stats.MetaBytes — untouched.
	for len(h.recycleTids) < h.sw.Workers() {
		h.recycleTids = append(h.recycleTids, h.sub.RegisterThread())
	}
}

// releaseBatchSize is how many released entries a sweep worker accumulates
// before handing them to the substrate in one FreeBatch call. Large enough to
// amortise the substrate's bin/arena locks over many frees, small enough that
// the per-worker scratch stays cache-resident.
const releaseBatchSize = 256

// filterAndRecycle consults the shadow map for each locked-in entry and
// either releases it to the allocator or returns it to quarantine. The list
// is cut into batches of at most releaseBatchSize entries that the sweep
// workers share out through sweep.Parallel (§4.4); each worker accumulates
// the entries it releases and frees them through the substrate's FreeBatch,
// so recycling n entries costs locks proportional to the number of (shard,
// class) groups, not to n. Returns how many entries were released to the
// substrate and how many were retained (requeued as failed frees).
func (h *Heap) filterAndRecycle(locked []quarantine.Entry) (released, retained uint64) {
	// The current worker count tracks the governed helper knob; the
	// registered thread pool only ever grows, so clamp to both (a plane
	// that lowered Helpers leaves surplus registered threads idle).
	workers := min(h.sw.Workers(), len(h.recycleTids))
	// Parallel recycle workers race on shared substrate bins, so which
	// chunks and pages get reused depends on the schedule. Synchronous mode
	// promises bit-reproducible runs (DESIGN §3): it recycles on one worker,
	// which Parallel hands the batches in index order.
	if h.cfg.Mode == Synchronous {
		workers = 1
	}
	// A batch is at most an even share, so every one of
	// min(workers, len(locked)) workers gets at least one.
	batch := min((len(locked)+workers-1)/workers, releaseBatchSize)
	failed := make([][]quarantine.Entry, workers)
	h.sw.Parallel(workers, (len(locked)+batch-1)/batch, func(w int, items iter.Seq[int]) {
		tid := h.recycleTids[w]
		rel := h.q.NewReleaser()
		var fails []quarantine.Entry
		addrs := make([]uint64, 0, releaseBatchSize)
		torel := make([]quarantine.Entry, 0, releaseBatchSize)
		errs := make([]error, releaseBatchSize)
		released := uint64(0)
		flush := func() {
			if len(addrs) == 0 {
				return
			}
			// Membership leaves before the substrate free (a re-free racing
			// this window must not be absorbed as a duplicate of an
			// allocation that no longer exists); the whole batch is removed
			// under one hold of the quarantine lock, then freed under the
			// substrate's batched locks.
			rel.ReleaseBatch(torel)
			h.sub.FreeBatch(tid, addrs, errs[:len(addrs)])
			for _, err := range errs[:len(addrs)] {
				if err == nil {
					continue
				}
				// A program can double-free an allocation whose first free
				// was already released and recycled; the second free
				// re-enters quarantine looking live and the substrate
				// detects the duplicate here. That is undefined behaviour in
				// the program; absorb it (the substrate rejected the free,
				// so nothing is corrupted).
				if errors.Is(err, alloc.ErrDoubleFree) || errors.Is(err, alloc.ErrInvalidFree) {
					h.lateDoubleFrees.Add(1)
					continue
				}
				panic("core: substrate free failed: " + err.Error())
			}
			addrs, torel = addrs[:0], torel[:0]
		}
		for i := range items {
			part := locked[i*batch : min((i+1)*batch, len(locked))]
			for j := range part {
				e := &part[j]
				dangling := false
				if h.cfg.Sweeping {
					dangling = h.marks.AnyInRange(e.Base, e.Base+e.Size())
				}
				if dangling && h.cfg.FailedFrees {
					h.q.NoteFailed(e)
					h.failedFrees.Add(1)
					fails = append(fails, *e)
					continue
				}
				if dangling {
					// Partial version: counted but freed anyway.
					h.failedFrees.Add(1)
				}
				addrs = append(addrs, e.Base)
				torel = append(torel, *e)
				released++
				if len(addrs) == releaseBatchSize {
					flush()
				}
			}
		}
		flush()
		rel.Flush()
		h.releasedFrees.Add(released)
		failed[w] = fails
	})
	for _, fails := range failed {
		retained += uint64(len(fails))
		h.q.Requeue(fails)
	}
	released = uint64(len(locked)) - retained
	h.q.Reclaim(locked)
	return released, retained
}

// Sweep forces a complete sweep synchronously (tests and shutdown). All
// thread buffers known to be quiescent should be flushed by their owners
// first; FlushThread helps.
func (h *Heap) Sweep() { h.runSweep() }

// FlushThread publishes tid's buffered frees to the global quarantine.
func (h *Heap) FlushThread(tid alloc.ThreadID) {
	if ts := h.threadState(tid); ts != nil {
		h.drain(ts)
	}
}

// UsableSize implements alloc.Allocator. Quarantined allocations are not
// usable (they are freed from the program's perspective).
func (h *Heap) UsableSize(addr uint64) uint64 {
	if h.q.Contains(addr) {
		return 0
	}
	return h.sub.UsableSize(addr)
}

// Tick implements alloc.Allocator.
func (h *Heap) Tick(now uint64) { h.sub.Tick(now) }

// Stats implements alloc.Allocator.
func (h *Heap) Stats() alloc.Stats {
	st := h.sub.Stats()
	// The substrate counts quarantined allocations as live; separate them.
	q := h.q.Bytes() + h.q.UnmappedBytes()
	if st.Allocated >= q {
		st.Allocated -= q
	} else {
		st.Allocated = 0
	}
	st.Quarantined = h.q.Bytes() + h.q.UnmappedBytes()
	st.QuarantinedUnmapped = h.q.UnmappedBytes()
	st.MetaBytes += h.q.MetaBytes() + h.marks.FootprintBytes()
	st.Sweeps = h.sweeps.Load()
	st.FailedFrees = h.failedFrees.Load()
	st.ReleasedFrees = h.releasedFrees.Load()
	st.DoubleFrees = h.q.DoubleFrees() + h.lateDoubleFrees.Load()
	st.SweeperCycles = uint64(h.sw.BusyTime())
	st.STWCycles = uint64(h.stwNanos.Load())
	st.PauseNanos = uint64(h.pauseNanos.Load())
	st.BytesSwept = h.sw.BytesSwept()
	return st
}

// Shutdown implements alloc.Allocator: drains every registered thread's
// quarantine ring (so buffered frees become visible to accounting — callers
// expect a quiesced heap's Stats to reflect every Free issued) and stops the
// sweeper thread.
func (h *Heap) Shutdown() {
	for _, ts := range *h.threads.Load() {
		if ts != nil {
			h.drain(ts)
		}
	}
	if h.cfg.Mode != Synchronous {
		close(h.stop)
		h.wg.Wait()
	}
}

// CheckInvariants verifies cross-structure consistency and returns the first
// violation found, or nil. It is a debugging and testing aid; it takes the
// sweep lock, so no sweep runs concurrently. It walks the pending list, which
// invariant 5 proves is the membership set, so invariants 1–4 hold for every
// quarantined entry. Invariants checked:
//
//  1. every quarantined entry's base is still a live allocation at the
//     substrate (the quarantine owns it — nothing may have freed it);
//  2. entry sizes match the substrate's usable sizes;
//  3. quarantine byte accounting equals the sum over entries;
//  4. unmapped entries really have no resident pages, page by page;
//  5. the pending list and the membership set hold the same entries: every
//     pending entry is quarantined, none is pending twice, and the pending
//     count equals the quarantined count. A ring drain inserts into the
//     membership set and appends to the pending list in one hold of the
//     quarantine lock, but the check reads the pending snapshot, the
//     membership set and the counts in separate holds, so it needs no
//     drain in flight.
func (h *Heap) CheckInvariants() error {
	h.sweepMu.Lock()
	defer h.sweepMu.Unlock()

	var err error
	var mapped, unmapped, failed uint64
	pending := make(map[uint64]bool)
	h.q.ForEachPending(func(e quarantine.Entry) {
		if err != nil {
			return
		}
		if pending[e.Base] {
			err = fmt.Errorf("core: invariant: entry %#x pending twice", e.Base)
			return
		}
		pending[e.Base] = true
		if !h.q.Contains(e.Base) {
			err = fmt.Errorf("core: invariant: pending entry %#x not quarantined", e.Base)
			return
		}
		a, ok := h.sub.Lookup(e.Base)
		if !ok || a.Base != e.Base {
			err = fmt.Errorf("core: invariant: quarantined %#x not live at substrate", e.Base)
			return
		}
		size := e.Size()
		if a.Size != size {
			err = fmt.Errorf("core: invariant: entry %#x size %d != substrate %d", e.Base, size, a.Size)
			return
		}
		if e.Unmapped() {
			unmapped += size
			for p := e.Base; p < e.Base+size; p += mem.PageSize {
				if r := h.space.Lookup(p); r != nil && r.PageResident(r.PageIndex(p)) {
					err = fmt.Errorf("core: invariant: unmapped entry %#x has resident page %#x", e.Base, p)
					return
				}
			}
		} else {
			mapped += size
		}
		if e.Failed() {
			failed += size
		}
	})
	if err != nil {
		return err
	}
	if got := h.q.Entries(); got != uint64(len(pending)) {
		return fmt.Errorf("core: invariant: %d pending entries != %d quarantined", len(pending), got)
	}
	if got := h.q.Bytes(); got != mapped {
		return fmt.Errorf("core: invariant: mapped bytes account %d != entry sum %d", got, mapped)
	}
	if got := h.q.UnmappedBytes(); got != unmapped {
		return fmt.Errorf("core: invariant: unmapped bytes account %d != entry sum %d", got, unmapped)
	}
	if got := h.q.FailedBytes(); got != failed {
		return fmt.Errorf("core: invariant: failed bytes account %d != entry sum %d", got, failed)
	}
	return nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
