package main

import (
	"fmt"
	"time"

	"minesweeper/internal/alloc"
	"minesweeper/internal/control"
	"minesweeper/internal/core"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
	"minesweeper/internal/schemes"
	"minesweeper/internal/sim"
	"minesweeper/internal/workload"
)

// spec is one benchmark workload: a profile from internal/workload with its
// run length pinned here, so it is the same on every commit, and the
// protected configuration it runs under. The unprotected side of each pair
// runs the same profile and seed on plain jemalloc.
type spec struct {
	name    string
	profile string
	threads int
	ops     int // per thread
	live    int // LiveTarget per thread
	mode    core.Mode
	// budget, when non-zero, governs the protected heap with the AIMD
	// control plane under this resident-memory budget.
	budget uint64
	// expect is the protected run's wall time on the reference host (2 CPUs);
	// a run still going after watchdogFactor times it is declared hung.
	expect time.Duration
}

// watchdogFactor times a workload's expected wall is the deadline of each
// of its runs.
const watchdogFactor = 5

var specs = []spec{
	// 95% of operations are malloc/free of 16-160 B objects: the core free
	// path (resolve, ring push and drain, zeroing) and the jemalloc tcache do
	// most of the work, and each of the ~130 sweeps of an ~12 MiB heap is
	// cheap.
	{name: "alloc-churn", profile: "xalancbmk", threads: 1, ops: 1_500_000, live: 120_000,
		mode: core.FullyConcurrent, expect: 2 * time.Second},
	// Bound by the sweeper (~5x slowdown): marking, recycle, purge and
	// extent decommit dominate, and malloc/free is a small share.
	{name: "sweep-heavy", profile: "pressure", threads: 1, ops: 800_000, live: 30_000,
		mode: core.FullyConcurrent, expect: 1600 * time.Millisecond},
	// Loads and stores of live data dominate and MineSweeper's own layers
	// are nearly idle: the control workload, where an alloc-path or
	// sweep-path change should leave the numbers unchanged.
	{name: "compute-bound", profile: "lbm", threads: 1, ops: 2_400_000, live: 120,
		mode: core.FullyConcurrent, expect: 1300 * time.Millisecond},
	// The only workload with a stop-the-world re-scan, pre-clean rounds,
	// drains of other threads' rings, the pause brake and two mutators
	// sharing arena shards.
	{name: "pause-mt", profile: "pressure-mt", threads: 2, ops: 800_000, live: 16_000,
		mode: core.MostlyConcurrent, expect: 3 * time.Second},
	// sweep-heavy's program under a budget of ~82% of its peak, so the
	// governor's tightened sweep threshold drives the sweeps and caps the
	// peak; the only workload that exercises internal/control. A tighter
	// budget leaves the mutator in the pause brake much of the time, and the
	// slowdown then follows the host's speed more than the heap's.
	{name: "governed", profile: "pressure", threads: 1, ops: 800_000, live: 30_000,
		mode: core.FullyConcurrent, budget: 128 << 20, expect: 2 * time.Second},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) prof() (workload.Profile, error) {
	p, ok := workload.FindProfile(s.profile)
	if !ok {
		return p, fmt.Errorf("workload %s: no profile %q", s.name, s.profile)
	}
	p.Threads, p.Ops, p.LiveTarget = s.threads, s.ops, s.live
	return p, nil
}

// scheme names the protected side.
func (s spec) scheme() string {
	name := "minesweeper"
	if s.mode == core.MostlyConcurrent {
		name += "-mostly"
	}
	if s.budget > 0 {
		name += "-governed"
	}
	return name
}

// factory returns a new factory for one run of s: plain jemalloc, or the
// protected heap. Each Build makes its own configuration, World included, so
// heaps never share a World or a control plane even if a factory were
// reused. When tr is non-nil the heap is instrumented for the traced pass.
func (s spec) factory(protected bool, tr *tracer) schemes.Factory {
	name := "baseline"
	if protected {
		name = s.scheme()
	}
	return schemes.Factory{Name: name, Build: func(space *mem.AddressSpace, world *sim.World) (alloc.Allocator, error) {
		start := time.Now()
		h, err := s.build(protected, space, world, tr)
		if tr != nil {
			tr.record("build", goid(), start, time.Now(), 0)
		}
		return h, err
	}}
}

func (s spec) build(protected bool, space *mem.AddressSpace, world *sim.World, tr *tracer) (alloc.Allocator, error) {
	if !protected {
		h := jemalloc.New(space, jemalloc.DefaultConfig())
		if tr != nil {
			return tr.wrap("jemalloc", h), nil
		}
		return h, nil
	}
	cfg := core.DefaultConfig()
	cfg.Mode = s.mode
	if world != nil {
		cfg.World = world
	}
	if s.budget > 0 {
		// As schemes.Governed builds it. Only the traced pass enlarges the
		// decision ring, to keep every decision of a run for
		// control.critical_frac.
		ringCap := 0
		if tr != nil {
			ringCap = sweepRingCap
		}
		cfg.Control = control.NewPlane(control.Config{
			Base: control.Knobs{
				SweepThreshold:    cfg.SweepThreshold,
				UnmappedFactor:    cfg.UnmappedFactor,
				PauseThreshold:    cfg.PauseThreshold,
				Helpers:           cfg.Helpers,
				RescanBudgetPages: cfg.RescanBudgetPages,
				ZeroDeferred:      cfg.Zeroing && cfg.ZeroMode == core.ZeroDeferred,
			},
			Budget:  s.budget,
			Policy:  control.NewAIMD(),
			RingCap: ringCap,
		})
	}
	jcfg := jemalloc.DefaultConfig()
	if tr != nil {
		jcfg.Hooks = tracedHooks{inner: jcfg.Hooks, tr: tr}
	}
	h, err := core.New(space, cfg, jcfg)
	if err != nil {
		return nil, err
	}
	if tr == nil {
		return h, nil
	}
	// workload.Run attaches telemetry only to heaps it can see implement
	// SetTelemetry, which the wrapper hides; attach to the inner heap here.
	h.SetTelemetry(tr.reg)
	return tr.wrap("core", h), nil
}

// run is one execution of a workload on one side of a pair.
type run struct {
	res workload.Result
	// err is nil when the run finished and its output passed every check.
	err error
	// spans are the traced run's spans, nil when untraced.
	spans []span
}

// check validates a finished run's output: the program saw no fault, the
// heap absorbed no double free, every allocation was freed by teardown, and
// the call counts are consistent.
func check(res workload.Result, err error) error {
	switch {
	case err != nil:
		return err
	case res.UAFs != 0:
		return fmt.Errorf("%d faulting accesses", res.UAFs)
	case res.Stats.DoubleFrees != 0:
		return fmt.Errorf("%d double frees", res.Stats.DoubleFrees)
	case res.Stats.Allocated != 0:
		return fmt.Errorf("%d bytes still allocated after teardown", res.Stats.Allocated)
	case res.Stats.Mallocs < res.Stats.Frees:
		return fmt.Errorf("%d frees exceed %d mallocs", res.Stats.Frees, res.Stats.Mallocs)
	}
	return nil
}
