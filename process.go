package minesweeper

import (
	"fmt"

	"minesweeper/internal/alloc"
	"minesweeper/internal/control"
	"minesweeper/internal/core"
	"minesweeper/internal/crcount"
	"minesweeper/internal/dangsan"
	"minesweeper/internal/dlmalloc"
	"minesweeper/internal/events"
	"minesweeper/internal/ffmalloc"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/markus"
	"minesweeper/internal/mem"
	"minesweeper/internal/oscar"
	"minesweeper/internal/psweeper"
	"minesweeper/internal/scudo"
	"minesweeper/internal/sim"
	"minesweeper/internal/telemetry"
)

// Process is a simulated process: an address space, a globals segment, a
// protection scheme, and any number of mutator threads.
type Process struct {
	cfg   Config
	space *mem.AddressSpace
	world *sim.World
	heap  alloc.Allocator
	prog  *sim.Program
	tel   *telemetry.Registry
	evt   *events.Recorder
}

// NewProcess creates a process protected by the configured scheme. The
// configuration is validated first; nonsense values fail with an error
// wrapping ErrBadConfig rather than misbehaving silently.
func NewProcess(cfg Config) (*Process, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	space := mem.NewAddressSpace()
	world := sim.NewWorld()

	heap, err := buildHeap(cfg, space, world)
	if err != nil {
		return nil, err
	}
	prog, err := sim.NewProgram(space, heap, world)
	if err != nil {
		heap.Shutdown()
		return nil, err
	}
	p := &Process{cfg: cfg, space: space, world: world, heap: heap, prog: prog}
	if cfg.Telemetry {
		if sink, ok := heap.(interface {
			SetTelemetry(*telemetry.Registry)
		}); ok {
			p.tel = telemetry.NewRegistry(telemetry.DefaultRingCap)
			sink.SetTelemetry(p.tel)
		}
	}
	if cfg.Events {
		if sink, ok := heap.(interface {
			SetEvents(*events.Recorder)
		}); ok {
			p.evt = events.NewRecorder(events.DefaultRingCap, events.DefaultWindow)
			sink.SetEvents(p.evt)
		}
	}
	return p, nil
}

func coreConfig(cfg Config, world *sim.World) core.Config {
	ccfg := core.DefaultConfig()
	ccfg.World = world
	if cfg.Scheme == SchemeMineSweeperMostlyConcurrent {
		ccfg.Mode = core.MostlyConcurrent
	}
	if cfg.Synchronous {
		ccfg.Mode = core.Synchronous
	}
	if cfg.SweepThreshold > 0 {
		ccfg.SweepThreshold = cfg.SweepThreshold
	}
	if cfg.Helpers > 0 {
		ccfg.Helpers = cfg.Helpers
	}
	if cfg.PauseThreshold != 0 {
		ccfg.PauseThreshold = cfg.PauseThreshold
		if cfg.PauseThreshold < 0 {
			ccfg.PauseThreshold = 0
		}
	}
	if cfg.UnmappedFactor > 0 {
		ccfg.UnmappedFactor = cfg.UnmappedFactor
	}
	if cfg.BufferCap > 0 {
		ccfg.BufferCap = cfg.BufferCap
	}
	if cfg.RescanBudgetPages != 0 {
		ccfg.RescanBudgetPages = cfg.RescanBudgetPages
		if cfg.RescanBudgetPages < 0 {
			ccfg.RescanBudgetPages = 0
		}
	}
	ccfg.Zeroing = !cfg.DisableZeroing
	ccfg.Unmapping = !cfg.DisableUnmapping
	ccfg.Purging = !cfg.DisablePurging
	ccfg.DebugDoubleFree = cfg.DebugDoubleFree
	if cfg.MemoryBudget > 0 || cfg.Controller != nil {
		pol := cfg.Controller
		if pol == nil {
			pol = control.NewAIMD()
		}
		// The plane's base knobs are the resolved core values, so a Static
		// policy reproduces the ungoverned behaviour exactly and an
		// adaptive one relaxes back to precisely the configured state.
		ccfg.Control = control.NewPlane(control.Config{
			Base: control.Knobs{
				SweepThreshold:    ccfg.SweepThreshold,
				UnmappedFactor:    ccfg.UnmappedFactor,
				PauseThreshold:    ccfg.PauseThreshold,
				Helpers:           ccfg.Helpers,
				RescanBudgetPages: ccfg.RescanBudgetPages,
			},
			Budget: cfg.MemoryBudget,
			Policy: pol,
		})
	}
	return ccfg
}

func buildHeap(cfg Config, space *mem.AddressSpace, world *sim.World) (alloc.Allocator, error) {
	switch cfg.Scheme {
	case SchemeBaseline:
		return jemalloc.New(space, jemalloc.DefaultConfig()), nil
	case SchemeMineSweeper, SchemeMineSweeperMostlyConcurrent:
		return core.New(space, coreConfig(cfg, world), jemalloc.DefaultConfig())
	case SchemeMarkUs:
		mcfg := markus.DefaultConfig()
		mcfg.World = world
		if cfg.SweepThreshold > 0 {
			mcfg.SweepThreshold = cfg.SweepThreshold
		}
		mcfg.Synchronous = cfg.Synchronous
		return markus.New(space, mcfg, jemalloc.DefaultConfig()), nil
	case SchemeFFMalloc:
		return ffmalloc.New(space), nil
	case SchemeScudoMineSweeper:
		scfg := scudo.DefaultConfig()
		ccfg := coreConfig(cfg, world)
		scfg.Core = &ccfg
		return scudo.New(space, scfg)
	case SchemeOscar:
		return oscar.New(space), nil
	case SchemeDangSan:
		return dangsan.New(space, jemalloc.DefaultConfig()), nil
	case SchemePSweeper:
		pcfg := psweeper.DefaultConfig()
		pcfg.Synchronous = cfg.Synchronous
		if cfg.SweepThreshold > 0 {
			pcfg.WakeThreshold = cfg.SweepThreshold
		}
		return psweeper.New(space, pcfg, jemalloc.DefaultConfig()), nil
	case SchemeCRCount:
		return crcount.New(space, jemalloc.DefaultConfig()), nil
	case SchemeDlmalloc:
		return dlmalloc.New(space), nil
	case SchemeMineSweeperDlmalloc:
		ccfg := coreConfig(cfg, world)
		ccfg.Unmapping = false // in-band chunks share pages with neighbours
		return core.NewWithSubstrate(space, ccfg, dlmalloc.New(space))
	default:
		return nil, fmt.Errorf("minesweeper: unknown scheme %v", cfg.Scheme)
	}
}

// NewThread registers a mutator thread with a deterministic seed.
func (p *Process) NewThread() (*Thread, error) { return p.NewThreadSeed(1) }

// NewThreadSeed registers a mutator thread whose PRNG stream is seeded with
// seed (workloads use distinct seeds per thread).
func (p *Process) NewThreadSeed(seed uint64) (*Thread, error) {
	th, err := p.prog.NewThread(seed)
	if err != nil {
		return nil, err
	}
	return &Thread{th: th, proc: p}, nil
}

// GlobalSlot returns the address of 8-byte global slot i — the simulated
// program's static data, scanned as roots by every sweep.
func (p *Process) GlobalSlot(i int) Addr { return p.prog.GlobalSlot(i) }

// GlobalSlots returns the number of global slots.
func (p *Process) GlobalSlots() int { return p.prog.GlobalSlots() }

// Sweep forces a complete sweep (or marking pass) now, for schemes that have
// one. It returns false for schemes without sweeps.
func (p *Process) Sweep() bool {
	switch h := p.heap.(type) {
	case *core.Heap:
		h.Sweep()
		return true
	case *markus.Heap:
		h.Collect()
		return true
	case *psweeper.Heap:
		h.Sweep()
		return true
	default:
		return false
	}
}

// FlushThread publishes a thread's buffered frees to the global quarantine
// so a forced Sweep can see them (tests and deterministic examples).
func (p *Process) FlushThread(t *Thread) {
	if h, ok := p.heap.(*core.Heap); ok {
		h.FlushThread(t.th.ID())
	}
}

// Stats returns a statistics snapshot.
func (p *Process) Stats() Stats {
	st := p.heap.Stats()
	return Stats{
		Allocated:           st.Allocated,
		Quarantined:         st.Quarantined,
		QuarantinedUnmapped: st.QuarantinedUnmapped,
		RSS:                 p.space.RSS(),
		MetaBytes:           st.MetaBytes,
		Mallocs:             st.Mallocs,
		Frees:               st.Frees,
		Sweeps:              st.Sweeps,
		FailedFrees:         st.FailedFrees,
		ReleasedFrees:       st.ReleasedFrees,
		DoubleFrees:         st.DoubleFrees,
		BytesSwept:          st.BytesSwept,
		SweeperBusy:         st.SweeperCycles,
		STWTime:             st.STWCycles,
		PauseTime:           st.PauseNanos,
		UAFFaults:           p.prog.UAFAccesses(),
	}
}

// Telemetry returns the process's telemetry registry, or nil when
// Config.Telemetry was false or the scheme does not support attachment. The
// registry is live: snapshot it at any time, or publish it with
// PublishExpvar to serve it from /debug/vars.
func (p *Process) Telemetry() *telemetry.Registry { return p.tel }

// Events returns the process's flight recorder, or nil when Config.Events
// was false or the scheme does not support attachment. The recorder is live:
// capture a dump at any time, attach a sink for anomaly-triggered dumps, or
// serve it with events.NewServer for msstat -watch.
func (p *Process) Events() *events.Recorder { return p.evt }

// Governor returns a snapshot of the control plane's state — policy,
// pressure level, effective knobs, recent decisions — or nil when the
// process is ungoverned (no MemoryBudget or Controller configured).
func (p *Process) Governor() *control.State {
	h, ok := p.heap.(*core.Heap)
	if !ok || h.Control() == nil {
		return nil
	}
	st := h.Control().State()
	return &st
}

// RSS returns the simulated resident footprint in bytes.
func (p *Process) RSS() uint64 { return p.space.RSS() }

// Scheme returns the process's protection scheme.
func (p *Process) Scheme() Scheme { return p.cfg.Scheme }

// Close shuts down background machinery. The process must not be used
// afterwards.
func (p *Process) Close() { p.heap.Shutdown() }
