package minesweeper

import (
	"minesweeper/internal/alloc"
	"minesweeper/internal/control"
	"minesweeper/internal/core"
	"minesweeper/internal/events"
	"minesweeper/internal/markus"
	"minesweeper/internal/mem"
	"minesweeper/internal/psweeper"
	"minesweeper/internal/schemes"
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

	heap, err := cfg.factory().Build(space, world)
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

// factory maps the Config onto its scheme's builder in internal/schemes. The
// core overrides reach the four MineSweeper schemes; SweepThreshold and
// Synchronous also reach MarkUs and pSweeper; a MemoryBudget or Controller
// governs the heap with a plane whose base knobs are the resolved core
// values.
func (c Config) factory() schemes.Factory {
	ccfg := core.DefaultConfig()
	if c.SweepThreshold > 0 {
		ccfg.SweepThreshold = c.SweepThreshold
	}
	if c.Helpers > 0 {
		ccfg.Helpers = c.Helpers
	}
	if c.PauseThreshold != 0 {
		ccfg.PauseThreshold = max(c.PauseThreshold, 0) // negative disables pausing
	}
	if c.UnmappedFactor > 0 {
		ccfg.UnmappedFactor = c.UnmappedFactor
	}
	if c.BufferCap > 0 {
		ccfg.BufferCap = c.BufferCap
	}
	if c.RescanBudgetPages != 0 {
		ccfg.RescanBudgetPages = max(c.RescanBudgetPages, 0) // negative disables pre-cleaning
	}
	ccfg.Zeroing = !c.DisableZeroing
	ccfg.Unmapping = !c.DisableUnmapping
	ccfg.Purging = !c.DisablePurging
	ccfg.DebugDoubleFree = c.DebugDoubleFree
	return schemes.NewWith(c.Scheme, schemes.Options{
		Core:           &ccfg,
		SweepThreshold: c.SweepThreshold,
		Synchronous:    c.Synchronous,
		Budget:         c.MemoryBudget,
		Policy:         c.Controller,
	})
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
// registry is live: snapshot it at any time.
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
