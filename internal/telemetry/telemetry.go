// Package telemetry is MineSweeper's always-compiled-in runtime observability
// layer. The paper's whole evaluation (§5, Figures 8-17) depends on seeing
// inside the sweep — what triggered it, how long marking vs recycling took,
// how deep the quarantine is — and production memory-safety tooling
// (GWP-ASan) shows such telemetry must be cheap enough to leave on.
//
// The layer has three parts:
//
//   - per-sweep records: one SweepRecord per completed sweep (trigger
//     reason, per-phase durations, scan and release figures), kept in a
//     lock-free ring buffer of the last N sweeps;
//   - histograms and gauges: power-of-two-bucket latency histograms with
//     per-stripe atomics for the malloc/free hot paths, plus pull-based
//     gauges sampled at snapshot time;
//   - a snapshot/export pipeline: Registry.Snapshot() produces a stable
//     struct that renders to JSON or aligned text (metrics.Table). Live
//     export runs through the flight recorder's events.Server.
//
// Cost discipline: a disabled registry is a nil pointer — instrumented code
// does one pointer load and branch. An enabled registry samples malloc/free
// latency GWP-ASan style: a plain per-thread counter (owned by the
// instrumented allocator, no shared writes) decides whether this op is timed,
// and only every SamplePeriod'th op pays the two time.Now calls and the
// histogram record. Rare events (sweeps, §5.7
// pauses) are always timed — their cost is invisible next to the work they
// measure. The `make telemetry-overhead` gate holds the enabled cost within
// 3% on BenchmarkMallocFree64.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"minesweeper/internal/control"
	"minesweeper/internal/ring"
)

// Standard histogram names used by the core layer; msstat and the renderers
// treat them generically, so these are conventions rather than requirements.
const (
	HistMalloc = "malloc_ns"
	HistFree   = "free_ns"
	HistPause  = "pause_ns"
	HistSweep  = "sweep_ns"
	// HistStw records the stop-the-world window of each sweep: the span
	// mutators are actually held at safepoints (the soft-dirty re-scan in
	// mostly-concurrent mode, or the whole mark when marking is not
	// concurrent). This is the pause-tail metric the `make pause-gate`
	// acceptance bound reads at p99.9.
	HistStw = "stw_pause_ns"
)

// DefaultSamplePeriod is the default 1-in-N sampling rate for the malloc and
// free latency histograms. The dominant enabled cost is the pair of time.Now
// calls on a sampled op (~130 ns on the reference host — comparable to the
// fast path itself), so the period must keep timing amortised well under the
// 3% budget; 256 puts it near 0.5 ns/op while a steady allocation rate still
// lands thousands of samples per second. GWP-ASan, the production precedent,
// samples orders of magnitude more sparsely still.
const DefaultSamplePeriod = 256

// GaugeFunc reads one instantaneous value. It must be safe for concurrent
// use and cheap enough to call on every snapshot.
type GaugeFunc func() uint64

// gauge is one registered pull-based gauge.
type gauge struct {
	name string
	fn   GaugeFunc
}

// Registry is one process's telemetry state: the sweep ring, the standard
// latency histograms, and any registered gauges. A nil *Registry is the
// disabled state; all methods on a non-nil Registry are safe for concurrent
// use.
type Registry struct {
	ring *ring.Ring[SweepRecord]
	// epoch anchors Snapshot.CapturedAtNanos: a monotonic per-registry
	// clock, so two snapshots of the same registry order and diff reliably
	// even if the wall clock steps.
	epoch time.Time

	// The standard histograms, allocated eagerly so hot paths can cache
	// the pointers without nil checks beyond the registry's own.
	Malloc *Histogram // malloc latency, ns
	Free   *Histogram // free latency, ns
	Pause  *Histogram // §5.7 allocation-pause stall, ns
	Sweep  *Histogram // whole-sweep duration, ns
	Stw    *Histogram // per-sweep stop-the-world window, ns (exact, not sampled)

	samplePeriod atomic.Uint64

	// governor is the attached control plane (nil when the heap is
	// ungoverned); snapshots embed its state.
	governor atomic.Pointer[control.Plane]

	mu     sync.Mutex
	extra  []*Histogram // caller-registered histograms
	gauges []gauge
}

// NewRegistry returns a registry retaining the last ringCap sweeps
// (DefaultRingCap if <= 0).
func NewRegistry(ringCap int) *Registry {
	r := &Registry{
		ring:   ring.New(ringCap, func(r *SweepRecord) *uint64 { return &r.Seq }),
		epoch:  time.Now(),
		Malloc: NewHistogram(HistMalloc, "ns", DefaultHistShards),
		Free:   NewHistogram(HistFree, "ns", DefaultHistShards),
		Pause:  NewHistogram(HistPause, "ns", 1),
		Sweep:  NewHistogram(HistSweep, "ns", 1),
		Stw:    NewHistogram(HistStw, "ns", 1),
	}
	r.samplePeriod.Store(DefaultSamplePeriod)
	return r
}

// SetSamplePeriod sets the 1-in-n sampling rate for malloc/free latency
// capture. n <= 1 times every operation (full fidelity — tests and offline
// analysis; too slow for the hot-path overhead budget). Instrumented
// allocators read the period and keep their own per-thread tick counters, so
// the per-operation decision involves no shared writes at all.
func (r *Registry) SetSamplePeriod(n uint64) {
	if n < 1 {
		n = 1
	}
	r.samplePeriod.Store(n)
}

// SamplePeriod returns the current 1-in-n malloc/free sampling rate.
func (r *Registry) SamplePeriod() uint64 { return r.samplePeriod.Load() }

// ObserveSweep takes one completed sweep's record (the core layer calls it
// at the end of every sweep): the record enters the ring and the
// sweep-duration histogram.
func (r *Registry) ObserveSweep(rec SweepRecord) {
	r.ring.Push(rec)
	r.Sweep.Record(uint64(rec.TotalNanos))
}

// Ring exposes the sweep ring (tests, custom renderers).
func (r *Registry) Ring() *ring.Ring[SweepRecord] { return r.ring }

// AttachGovernor associates a control plane with the registry so snapshots
// include governor state (nil detaches).
func (r *Registry) AttachGovernor(p *control.Plane) { r.governor.Store(p) }

// Governor returns the attached control plane, or nil.
func (r *Registry) Governor() *control.Plane { return r.governor.Load() }

// RegisterHistogram adds a caller-owned histogram to snapshots.
func (r *Registry) RegisterHistogram(h *Histogram) {
	r.mu.Lock()
	r.extra = append(r.extra, h)
	r.mu.Unlock()
}

// RegisterGauge adds a pull-based gauge. Re-registering a name replaces the
// previous gauge, so an allocator torn down and rebuilt does not leave stale
// closures behind.
func (r *Registry) RegisterGauge(name string, fn GaugeFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.gauges {
		if r.gauges[i].name == name {
			r.gauges[i].fn = fn
			return
		}
	}
	r.gauges = append(r.gauges, gauge{name: name, fn: fn})
}

// GaugeValue is one sampled gauge.
type GaugeValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// Snapshot captures the registry's current state as a stable, renderable
// struct. Gauges are sampled at call time; histograms and the sweep ring are
// merged/copied without blocking writers.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		CapturedAtNanos: int64(time.Since(r.epoch)),
		SweepsTotal:     r.ring.Total(),
		Sweeps:          r.ring.Snapshot(),
		SamplePeriod:    r.SamplePeriod(),
	}
	if n := len(s.Sweeps); n > 0 {
		s.SweepSeq = s.Sweeps[n-1].Seq
	}
	if g := r.governor.Load(); g != nil {
		st := g.State()
		s.Governor = &st
	}
	hists := []*Histogram{r.Malloc, r.Free, r.Pause, r.Sweep, r.Stw}
	r.mu.Lock()
	hists = append(hists, r.extra...)
	gauges := append([]gauge(nil), r.gauges...)
	r.mu.Unlock()
	for _, h := range hists {
		s.Histograms = append(s.Histograms, h.Snapshot())
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: g.name, Value: g.fn()})
	}
	sort.SliceStable(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	return s
}
