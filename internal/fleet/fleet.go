package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"minesweeper/internal/control"
	"minesweeper/internal/core"
	"minesweeper/internal/events"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
	"minesweeper/internal/metrics"
	"minesweeper/internal/sim"
	"minesweeper/internal/telemetry"
	"minesweeper/internal/workload"
)

// Tenant is one simulated tenant process: its own address space, MineSweeper
// heap, per-heap governor plane, telemetry registry and open-loop service.
// The host never reaches into the tenant's hot paths — federation happens
// entirely through atomic publications on the tenant's control plane.
type Tenant struct {
	ID       int
	Class    string
	Priority int
	Floor    uint64
	Weight   float64

	space *mem.AddressSpace
	world *sim.World
	heap  *core.Heap
	plane *control.Plane
	tel   *telemetry.Registry
	prog  *sim.Program
	th    *sim.Thread
	svc   workload.Service
	arr   workload.ArrivalProcess
	rng   *sim.Rand

	// hostPressure is the host-pushed half of the pressure signal: the
	// rebalance step stores the level implied by the tenant's RSS against
	// its fresh rail, and the service's PressureFunc folds it with the
	// plane's own level. The push matters because the plane only observes
	// at sweep boundaries — on a small heap the first sweep can lag the
	// commit of exactly the pages the host wants never committed.
	hostPressure atomic.Int32

	// Host-loop bookkeeping. peakRSS is written by the serving worker
	// (one per tenant per tick, ordered by the tick barrier); the rest by
	// the rebalance step under the host lock.
	peakRSS      uint64
	minGrant     uint64
	throttles    uint64
	starveAverts uint64
	serveErr     error
}

// Plane exposes the tenant's control plane (tests).
func (t *Tenant) Plane() *control.Plane { return t.plane }

// Telemetry exposes the tenant's registry (tests, reporting).
func (t *Tenant) Telemetry() *telemetry.Registry { return t.tel }

// Host runs a fleet of tenants over one shared RSS budget, serving open-loop
// arrivals in lock-stepped ticks and rebalancing the federated budget every
// ArbiterEvery ticks. Tenants may join and leave while Run is in flight;
// membership changes land at tick boundaries so a tenant is never torn down
// under a live service call.
type Host struct {
	cfg Config
	arb *Arbiter
	rec *events.Recorder
	rng *sim.Rand

	mu       sync.Mutex
	tenants  []*Tenant
	leaves   map[int]bool
	nextID   int
	tick     int
	closed   bool
	departed []TenantReport

	peakRSS      uint64 // max total RSS seen at rebalance points
	breaches     uint64
	levelChanges uint64
	railsSqueezd bool
}

// NewHost validates cfg, builds every configured tenant and primes each
// tenant's budget rail with floor + an equal share of the distributable
// budget.
func NewHost(cfg Config) (*Host, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
		if cfg.Workers < 4 {
			cfg.Workers = 4
		}
	}
	h := &Host{
		cfg:    cfg,
		arb:    NewArbiter(cfg.HostBudget, cfg.NoisyTicks),
		rec:    cfg.Events,
		rng:    sim.NewRand(cfg.Seed ^ 0x9e3779b97f4a7c15),
		leaves: make(map[int]bool),
	}
	for _, cl := range cfg.Classes {
		for i := 0; i < cl.Tenants; i++ {
			if _, err := h.addTenantLocked(cl); err != nil {
				h.teardownAll()
				return nil, err
			}
		}
	}
	// Slow start: rails are primed at the floors alone (addTenantLocked
	// already did this) and grow only as rebalances prove the host calm —
	// the TCP shape. Priming with generous rails instead lets every
	// tenant balloon before the first squeeze propagates, and the
	// transient peak is exactly what the host budget is supposed to
	// bound. A tenant with floor 0 starts unbounded (budget 0), which is
	// what calibration runs want.
	return h, nil
}

// Tenants returns the current tenant count.
func (h *Host) Tenants() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.tenants)
}

// Arbiter exposes the host arbiter (tests).
func (h *Host) Arbiter() *Arbiter { return h.arb }

// AddTenant builds and admits one new tenant of class cl (cl.Tenants is
// ignored; one call, one tenant). Safe to call while Run is in flight: the
// tenant starts serving at the next tick boundary. Returns the tenant ID.
func (h *Host) AddTenant(cl Class) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, fmt.Errorf("fleet: host is shut down")
	}
	return h.addTenantLocked(cl)
}

// addTenantLocked builds one tenant and admits its rail. Caller holds h.mu
// (or is NewHost before the host is shared).
func (h *Host) addTenantLocked(cl Class) (int, error) {
	id := h.nextID
	h.nextID++
	t, err := h.buildTenant(id, cl)
	if err != nil {
		return 0, err
	}
	if err := h.arb.Admit(id, cl.Floor, cl.Weight, cl.Priority); err != nil {
		t.teardown()
		return 0, err
	}
	t.plane.SetBudget(cl.Floor)
	t.minGrant = cl.Floor
	h.tenants = append(h.tenants, t)
	return id, nil
}

// RemoveTenant marks a tenant for departure; it is torn down (and its
// telemetry folded into the final report's departed set) at the next tick
// boundary, never mid-serve.
func (h *Host) RemoveTenant(id int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, t := range h.tenants {
		if t.ID == id {
			h.leaves[id] = true
			return nil
		}
	}
	return fmt.Errorf("fleet: no tenant %d", id)
}

// buildTenant constructs a tenant's full stack: address space, world,
// governed MineSweeper heap (per-heap AIMD plane, exactly the PR 5 setup),
// telemetry registry, program, thread and open-loop service.
func (h *Host) buildTenant(id int, cl Class) (*Tenant, error) {
	seed := h.cfg.Seed*0x100000001b3 + uint64(id)*0x9e3779b9 + 1
	space := mem.NewAddressSpace()
	world := sim.NewWorld()
	ccfg := core.DefaultConfig()
	ccfg.World = world
	// Tenant heaps are two orders of magnitude smaller than the
	// single-process heaps the defaults were tuned for: a rail is a few
	// hundred KiB, so the default 32 KiB sweep floor and 64-entry thread
	// ring would keep nearly every free ring-resident and sweep-invisible —
	// the tenant's governor would never observe pressure at all. Scale both
	// down so small heaps drain and sweep at their own proportions.
	ccfg.SweepFloorBytes = 4 << 10
	ccfg.BufferCap = 16
	plane := control.NewPlane(control.Config{
		Base:   ccfg.Knobs(),
		Budget: cl.Floor, // re-granted immediately by the caller
		Policy: control.NewAIMD(),
	})
	ccfg.Control = plane
	heap, err := core.New(space, ccfg, jemalloc.DefaultConfig())
	if err != nil {
		return nil, err
	}
	tel := telemetry.NewRegistry(64)
	tel.AttachGovernor(plane)
	heap.SetTelemetry(tel)
	prog, err := sim.NewProgram(space, heap, world)
	if err != nil {
		heap.Shutdown()
		return nil, err
	}
	th, err := prog.NewThread(seed)
	if err != nil {
		heap.Shutdown()
		return nil, err
	}
	kind := cl.Workload
	if kind == "" {
		kind = "cache"
	}
	svc, err := workload.NewService(kind, th, seed^0xabcd, nil)
	if err != nil {
		th.Close()
		heap.Shutdown()
		return nil, err
	}
	lambda := cl.Lambda
	if lambda == 0 {
		lambda = 4
	}
	var arr workload.ArrivalProcess
	if cl.Burst > 1 {
		arr = workload.NewMMPP(lambda, cl.Burst, 48, 16)
	} else {
		arr = workload.Poisson{Lambda: lambda}
	}
	t := &Tenant{
		ID:       id,
		Class:    cl.Name,
		Priority: cl.Priority,
		Floor:    cl.Floor,
		Weight:   cl.Weight,
		space:    space,
		world:    world,
		heap:     heap,
		plane:    plane,
		tel:      tel,
		prog:     prog,
		th:       th,
		svc:      svc,
		arr:      arr,
		rng:      sim.NewRand(seed ^ 0x5bf03635),
	}
	// Close the tenant half of the control protocol: the service sheds
	// load under pressure, which is how a squeezed budget rail actually
	// turns into a smaller live set. The signal is the max of the two
	// federation layers — the plane's own level (observed at sweep
	// boundaries) and the host's pushed level (observed at rebalances) —
	// so whichever layer notices pressure first wins.
	if pa, ok := svc.(workload.PressureAware); ok {
		pa.SetPressure(func() int {
			p := int(t.plane.Level())
			if hp := int(t.hostPressure.Load()); hp > p {
				p = hp
			}
			return p
		})
	}
	return t, nil
}

// teardown closes a tenant's service, thread and heap (once; callers
// sequence it at tick boundaries so nothing races the serve loop).
func (t *Tenant) teardown() {
	if t.svc != nil {
		if err := t.svc.Close(); err != nil && t.serveErr == nil {
			t.serveErr = err
		}
		t.svc = nil
	}
	if t.th != nil {
		t.th.Close()
		t.th = nil
	}
	if t.heap != nil {
		t.heap.Shutdown()
		t.heap = nil
	}
}

// Step runs one lock-stepped tick: every tenant serves its arrivals, tick-
// boundary departures land, and every ArbiterEvery-th step rebalances the
// federated budget.
func (h *Host) Step() {
	h.tick++
	h.serveTick(h.snapshot())
	h.applyLeaves()
	if h.tick%h.cfg.ArbiterEvery == 0 {
		h.rebalance()
	}
}

// Run drives the fleet for cfg.Ticks lock-stepped ticks, rebalancing every
// ArbiterEvery ticks, then tears every tenant down and returns the fleet
// report. Run may be called once.
func (h *Host) Run() (*Report, error) {
	sampler := metrics.NewSampler(h.totalRSS, 2*time.Millisecond)
	sampler.Start()
	start := time.Now()
	for tick := 1; tick <= h.cfg.Ticks; tick++ {
		h.Step()
	}
	sampler.Stop()
	elapsed := time.Since(start)

	// Final snapshot before teardown (teardown drains rings and runs
	// final sweeps, which would smear shutdown cost into the report).
	rep := h.buildReport(sampler, elapsed)
	err := h.teardownAll()
	return rep, err
}

// Close tears down every remaining tenant. Run does this itself; Close is
// for callers driving Step directly (benchmarks). Idempotent.
func (h *Host) Close() error { return h.teardownAll() }

// snapshot returns the current tenant set.
func (h *Host) snapshot() []*Tenant {
	h.mu.Lock()
	defer h.mu.Unlock()
	ts := make([]*Tenant, len(h.tenants))
	copy(ts, h.tenants)
	return ts
}

// totalRSS sums resident bytes across live tenants (sampler callback).
func (h *Host) totalRSS() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var total uint64
	for _, t := range h.tenants {
		total += t.space.RSS()
	}
	return total
}

// serveTick runs one open-loop tick: every tenant draws its arrivals and
// serves them, spread over a bounded worker pool with a barrier at the end.
// Each tenant is touched by exactly one worker per tick, so per-tenant state
// needs no locks; the pool exists to overlap tenants' service time with
// their heaps' concurrent sweeps.
func (h *Host) serveTick(ts []*Tenant) {
	workers := h.cfg.Workers
	if workers > len(ts) {
		workers = len(ts)
	}
	if workers <= 1 {
		for _, t := range ts {
			t.serveOne()
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ts) {
					return
				}
				ts[i].serveOne()
			}
		}()
	}
	wg.Wait()
}

// serveOne draws and serves one tick of arrivals for the tenant.
func (t *Tenant) serveOne() {
	if t.serveErr != nil || t.svc == nil {
		return
	}
	if err := t.svc.Serve(t.arr.Arrivals(t.rng)); err != nil {
		t.serveErr = err
	}
	if rss := t.space.RSS(); rss > t.peakRSS {
		t.peakRSS = rss
	}
}

// applyLeaves tears down tenants marked for departure. Runs between ticks.
func (h *Host) applyLeaves() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.leaves) == 0 {
		return
	}
	kept := h.tenants[:0]
	for _, t := range h.tenants {
		if !h.leaves[t.ID] {
			kept = append(kept, t)
			continue
		}
		h.arb.Evict(t.ID)
		t.teardown()
		tr := t.report()
		tr.Departed = true
		h.departed = append(h.departed, tr)
	}
	h.tenants = kept
	h.leaves = make(map[int]bool)
}

// rebalance runs one arbiter pass and publishes the new grants to every
// tenant plane, emitting arbitration instants into the flight recorder and
// tripping a dump if the host breached its budget.
func (h *Host) rebalance() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.tenants) == 0 {
		return
	}
	byID := make(map[int]*Tenant, len(h.tenants))
	var total uint64
	for _, t := range h.tenants {
		byID[t.ID] = t
	}
	observed := make(map[int]uint64, len(h.tenants))
	grants, levelChanged := h.arb.Rebalance(func(id int) uint64 {
		rss := byID[id].space.RSS()
		observed[id] = rss
		total += rss
		return rss
	})
	if total > h.peakRSS {
		h.peakRSS = total
	}
	ring := h.ring()
	changed := uint64(0)
	for _, g := range grants {
		t := byID[g.ID]
		if t.plane.Budget() != g.Budget {
			changed++
		}
		t.plane.SetBudget(g.Budget)
		if g.Budget < t.minGrant {
			t.minGrant = g.Budget
		}
		// Push the host's view of this tenant's pressure: over the fresh
		// rail (or flagged noisy) is Critical, within an eighth of it is
		// Elevated. The service folds this with the plane's own level.
		push := int32(0)
		if rss := observed[g.ID]; rss > g.Budget || g.Noisy {
			push = 2
		} else if rss >= g.Budget-g.Budget/8 {
			push = 1
		}
		t.hostPressure.Store(push)
		if g.Throttled {
			t.throttles++
			if ring != nil {
				ring.Emit(events.KindTenantThrottle, uint64(g.ID), g.Budget)
			}
		}
		if g.StarveAverted {
			t.starveAverts++
			if ring != nil {
				ring.Emit(events.KindStarveAvert, uint64(g.ID), t.Floor)
			}
		}
	}
	if levelChanged {
		h.levelChanges++
		h.squeezeRails(h.arb.Level())
		if ring != nil {
			ring.Emit(events.KindHostLevel, uint64(h.arb.Level()), 0)
		}
	}
	if ring != nil {
		ring.Emit(events.KindTenantRebalance, changed, total)
	}
	if total > h.cfg.HostBudget {
		h.breaches++
		if h.rec != nil {
			h.rec.Trip(events.TripHostBudget)
		}
	}
}

// ring returns the host-arbiter event ring, or nil without a recorder.
func (h *Host) ring() *events.Ring {
	if h.rec == nil {
		return nil
	}
	return h.rec.Ring("host-arbiter")
}

// squeezeRails republishes tenant knob rails on host level changes: under
// host pressure no tenant may grow helper workers past its configured
// baseline (hundreds of tenants each doubling helpers would thrash one
// host's cores); back at Nominal the default envelope is restored. This is
// the "knob rails" half of federation — budgets steer memory, rails steer
// CPU amplification.
func (h *Host) squeezeRails(lvl control.Level) {
	squeeze := lvl != control.Nominal
	if squeeze == h.railsSqueezd {
		return
	}
	h.railsSqueezd = squeeze
	for _, t := range h.tenants {
		rails := control.DefaultRails(t.plane.Base())
		if squeeze {
			rails.HelpersMax = t.plane.Base().Helpers
		}
		t.plane.SetRails(rails)
	}
}

// teardownAll closes every remaining tenant. Idempotent.
func (h *Host) teardownAll() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	h.closed = true
	var err error
	for _, t := range h.tenants {
		t.teardown()
		if t.serveErr != nil && err == nil {
			err = fmt.Errorf("fleet: tenant %d: %w", t.ID, t.serveErr)
		}
	}
	return err
}
