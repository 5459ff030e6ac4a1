// Package events is MineSweeper's flight recorder: an always-on, lock-free
// stream of fixed-width binary events that answers the question the
// telemetry layer (internal/telemetry) cannot — "what happened in the 200 ms
// around that one 1 ms pause". Telemetry aggregates (histograms, per-sweep
// records); events keep the raw timeline, cheaply enough to leave on, the
// way GWP-ASan keeps cheap always-on recording plus full-fidelity capture of
// the rare event.
//
// The pieces:
//
//   - Ring: one writer thread's private ring of fixed-width events. The
//     writer publishes each event with a single atomic sequence store
//     (seqlock style); readers never block the writer and detect torn slots
//     by re-reading the sequence.
//   - Recorder: the per-process registry of rings plus the wall/monotonic
//     time base every event timestamp is relative to. Attaching a recorder
//     costs hot paths one atomic pointer load and branch; detached, the
//     same — exactly the telemetry registry's cost discipline.
//   - Flight triggers: Trip(cause) snapshots the last Window of every ring
//     into a self-describing dump (dump.go) through an attached sink,
//     rate-limited so an anomaly storm produces one dump per window, not
//     thousands.
//   - Exporters: Chrome trace_event JSON (chrome.go, loads directly in
//     Perfetto / chrome://tracing) and an aligned-text timeline
//     (timeline.go).
//   - Live streaming: an HTTP handler (server.go) serving state snapshots
//     and incremental event batches for msstat -watch.
//
// Event timestamps are nanoseconds since the recorder's epoch (monotonic).
// The on-disk encoding is documented in DESIGN.md §16.
package events

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies one event type. Values are stable on disk (DESIGN.md §16);
// add new kinds at the end, never renumber.
type Kind uint8

// Event kinds. Span kinds come in Begin/End pairs nested per ring; the rest
// are instants.
const (
	// KindInvalid marks an unwritten slot; never emitted.
	KindInvalid Kind = iota

	// Sweep-phase spans, emitted on the sweeper's ring in the order the
	// pipeline runs them (§4.3, DESIGN.md §14). SweepBegin/SweepEnd bracket
	// the whole sweep; the phase spans nest inside it.
	KindSweepBegin    // arg0=trigger reason, arg1=entries locked in
	KindSweepEnd      // arg0=released, arg1=retained
	KindMarkBegin     // concurrent (or STW-ablation) full-heap mark
	KindMarkEnd       // arg0=pages scanned, arg1=bytes scanned
	KindPrecleanBegin // one concurrent pre-clean round; arg0=round
	KindPrecleanEnd   // arg0=pages consumed, arg1=round
	KindStwBegin      // stop-the-world window opens; arg0=dirty pages frozen
	KindStwAbort      // pause abort: window over budget; arg0=dirty, arg1=budget
	KindStwEnd        // world restarted; arg0=dirty pages scanned
	KindRecycleBegin  // filter + FreeBatch release phase
	KindRecycleEnd    // arg0=released, arg1=retained
	KindPurgeBegin    // post-sweep allocator purge
	KindPurgeEnd

	// Mutator-side instants and spans, emitted on the owning thread's ring.
	KindPauseBegin // §5.7 allocation pause; arg0=trigger reason
	KindPauseEnd   // arg0=stall ns
	KindDrain      // quarantine ring drain; arg0=entries, arg1=drain ns
	KindZeroScrub  // retired, never emitted; kept so old dumps still decode
	KindAlloc      // sampled malloc; arg0=size, arg1=latency ns
	KindFree       // sampled free; arg0=size, arg1=latency ns

	// Control-plane instants (sweeper ring).
	KindGovDecision // arg0=new pressure level, arg1=previous level
	KindTrip        // flight-recorder trigger fired; arg0=cause code

	// Values 22–25 were a retired host simulation's instants (tenant-throttle,
	// rebalance, starve-avert, host-level). Dumps written before their
	// removal name them in their own kind table; give a new kind value 26 or
	// later so such a dump never labels them with its name.

	kindCount
)

// String returns the kind's stable name (also the span/instant name in the
// Chrome trace export).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

var kindNames = [...]string{
	KindInvalid:       "invalid",
	KindSweepBegin:    "sweep",
	KindSweepEnd:      "sweep.end",
	KindMarkBegin:     "mark",
	KindMarkEnd:       "mark.end",
	KindPrecleanBegin: "preclean",
	KindPrecleanEnd:   "preclean.end",
	KindStwBegin:      "stw",
	KindStwAbort:      "stw.abort",
	KindStwEnd:        "stw.end",
	KindRecycleBegin:  "recycle",
	KindRecycleEnd:    "recycle.end",
	KindPurgeBegin:    "purge",
	KindPurgeEnd:      "purge.end",
	KindPauseBegin:    "pause",
	KindPauseEnd:      "pause.end",
	KindDrain:         "drain",
	KindZeroScrub:     "zero-scrub",
	KindAlloc:         "alloc",
	KindFree:          "free",
	KindGovDecision:   "governor",
	KindTrip:          "trip",
}

// spanOpen maps a Begin kind to its End kind (0 for instants).
func spanOpen(k Kind) Kind {
	switch k {
	case KindSweepBegin:
		return KindSweepEnd
	case KindMarkBegin:
		return KindMarkEnd
	case KindPrecleanBegin:
		return KindPrecleanEnd
	case KindStwBegin:
		return KindStwEnd
	case KindRecycleBegin:
		return KindRecycleEnd
	case KindPurgeBegin:
		return KindPurgeEnd
	case KindPauseBegin:
		return KindPauseEnd
	}
	return 0
}

// isEnd reports whether k closes a span.
func isEnd(k Kind) bool {
	switch k {
	case KindSweepEnd, KindMarkEnd, KindPrecleanEnd, KindStwEnd,
		KindRecycleEnd, KindPurgeEnd, KindPauseEnd:
		return true
	}
	return false
}

// Event is one decoded event. Nanos is relative to the recorder epoch.
type Event struct {
	Seq   uint64 `json:"seq"`
	Nanos uint64 `json:"ns"`
	Kind  Kind   `json:"kind"`
	Arg0  uint64 `json:"arg0"`
	Arg1  uint64 `json:"arg1"`
}

// slot is one ring cell. Every field is an atomic word so concurrent
// snapshot reads race with the writer only through atomics (the -race
// contract); seq doubles as the seqlock: the writer zeroes it, stores the
// payload, then publishes the new sequence with the final store. A reader
// that observes the same nonzero seq before and after copying the payload
// holds an untorn event.
type slot struct {
	seq   atomic.Uint64
	nanos atomic.Uint64
	kind  atomic.Uint64
	arg0  atomic.Uint64
	arg1  atomic.Uint64
}

// DefaultRingCap is the default per-ring event capacity. At the observed
// steady-state event rates (every event source is already amortised:
// sampled ops, drains, sweep phases) 4096 events cover minutes of run, far
// past the flight window, for 160 KiB per thread.
const DefaultRingCap = 4096

// Ring is one writer's event ring. Emission is designed for a single owner
// but tolerates occasional foreign writers (the sweeper emits a drain event
// on a mutator's ring inside its quiesce): slots are claimed with one
// fetch-add, so concurrent emitters write disjoint slots. Snapshot may run
// concurrently from any goroutine.
type Ring struct {
	rec   *Recorder
	name  string
	slots []slot
	mask  uint64
	next  atomic.Uint64
}

// Name returns the ring's registered name.
func (r *Ring) Name() string { return r.name }

// Emit appends one event with the current recorder timestamp. Single
// writer; no allocation; the final seq store is the publish point.
func (r *Ring) Emit(k Kind, arg0, arg1 uint64) {
	r.EmitAt(r.rec.Now(), k, arg0, arg1)
}

// Nanos converts a clock reading to this ring's event timestamp, so a caller
// that already read the clock for its own accounting stamps the event with
// that same reading through EmitAt.
func (r *Ring) Nanos(t time.Time) uint64 { return uint64(t.Sub(r.rec.epoch)) }

// EmitAt appends one event with an explicit timestamp (tests; callers that
// already read the clock).
func (r *Ring) EmitAt(nanos uint64, k Kind, arg0, arg1 uint64) {
	seq := r.next.Add(1)
	s := &r.slots[(seq-1)&r.mask]
	s.seq.Store(0) // invalidate: readers discard the slot mid-rewrite
	s.nanos.Store(nanos)
	s.kind.Store(uint64(k))
	s.arg0.Store(arg0)
	s.arg1.Store(arg1)
	s.seq.Store(seq) // publish
}

// Snapshot appends to out every published event with Nanos >= sinceNanos,
// oldest first, and returns the extended slice. It never blocks the writer;
// events overwritten or rewritten mid-copy are skipped (the seqlock check),
// so a snapshot taken during heavy emission is a consistent subsequence.
func (r *Ring) Snapshot(out []Event, sinceNanos uint64) []Event {
	// The writer's cursor is not shared; scan every slot and order by seq.
	// Slot i can only hold seqs congruent to i+1 (mod cap), so collecting
	// valid slots and sorting by seq reconstructs emission order.
	start := len(out)
	for i := range r.slots {
		s := &r.slots[i]
		s1 := s.seq.Load()
		if s1 == 0 {
			continue
		}
		e := Event{
			Seq:   s1,
			Nanos: s.nanos.Load(),
			Kind:  Kind(s.kind.Load()),
			Arg0:  s.arg0.Load(),
			Arg1:  s.arg1.Load(),
		}
		if s.seq.Load() != s1 {
			continue // torn: the writer lapped this slot mid-copy
		}
		if e.Nanos < sinceNanos {
			continue
		}
		out = append(out, e)
	}
	sortEvents(out[start:])
	return out
}

// sortEvents orders by Seq (insertion sort: snapshots are near-sorted
// because slots are scanned in index order and seqs increase by cap per
// lap).
func sortEvents(ev []Event) {
	for i := 1; i < len(ev); i++ {
		for j := i; j > 0 && ev[j].Seq < ev[j-1].Seq; j-- {
			ev[j], ev[j-1] = ev[j-1], ev[j]
		}
	}
}

// DefaultWindow is the default flight-recorder capture window: how far back
// a triggered dump reaches, and the minimum spacing between dumps.
const DefaultWindow = 5 * time.Second

// TripCause codes carried by KindTrip events and dump headers.
type TripCause uint8

// Flight-recorder trigger causes.
const (
	// TripManual is an explicit Recorder.Trip call (examples, shutdown
	// capture).
	TripManual TripCause = iota
	// TripStwOverBudget fires when a stop-the-world re-scan had to proceed
	// with more dirty pages than RescanBudgetPages after exhausting its
	// pause-abort retries — the over-budget pause the pipeline exists to
	// prevent.
	TripStwOverBudget
	// TripGovernorCritical fires when the control plane's pressure level
	// enters Critical.
	TripGovernorCritical
	// TripBudgetRSS fires when resident memory exceeds the governed budget
	// at a sweep boundary.
	TripBudgetRSS
	// tripHostOverBudget is retired with the host simulation's kinds and
	// never fires; it keeps its name so dumps that carry it still render
	// it. A new cause takes 5 or later.
	tripHostOverBudget
)

// String returns the cause's name.
func (c TripCause) String() string {
	switch c {
	case TripManual:
		return "manual"
	case TripStwOverBudget:
		return "stw-over-budget"
	case TripGovernorCritical:
		return "governor-critical"
	case TripBudgetRSS:
		return "rss-over-budget"
	case tripHostOverBudget:
		return "host-over-budget"
	default:
		return fmt.Sprintf("TripCause(%d)", int(c))
	}
}

// DumpSink receives one flight-recorder capture per accepted Trip.
type DumpSink func(d *Dump)

// Recorder is one process's event recorder: the ring registry, the time
// base, and the flight-trigger state.
type Recorder struct {
	epoch   time.Time
	ringCap int
	window  time.Duration

	mu    sync.Mutex
	rings []*Ring

	sink     atomic.Pointer[DumpSink]
	lastTrip atomic.Int64 // recorder-nanos of the last accepted Trip
	trips    atomic.Uint64
}

// NewRecorder returns a recorder with per-ring capacity ringCap
// (DefaultRingCap if <= 0) and flight window (DefaultWindow if <= 0).
func NewRecorder(ringCap int, window time.Duration) *Recorder {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	n := 1
	for n < ringCap {
		n <<= 1
	}
	if window <= 0 {
		window = DefaultWindow
	}
	return &Recorder{epoch: time.Now(), ringCap: n, window: window}
}

// Now returns nanoseconds since the recorder epoch (monotonic).
func (r *Recorder) Now() uint64 { return uint64(time.Since(r.epoch)) }

// Epoch returns the recorder's wall-clock epoch.
func (r *Recorder) Epoch() time.Time { return r.epoch }

// Window returns the flight-capture window.
func (r *Recorder) Window() time.Duration { return r.window }

// Ring registers and returns a new named ring. Names label rings in dumps
// and exports ("sweeper", "thread-3"); duplicates are allowed but unhelpful.
func (r *Recorder) Ring(name string) *Ring {
	rg := &Ring{
		rec:   r,
		name:  name,
		slots: make([]slot, r.ringCap),
		mask:  uint64(r.ringCap - 1),
	}
	r.mu.Lock()
	r.rings = append(r.rings, rg)
	r.mu.Unlock()
	return rg
}

// Rings returns the registered rings (snapshot of the registry).
func (r *Recorder) Rings() []*Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Ring(nil), r.rings...)
}

// SetSink attaches the flight-dump sink (nil detaches). The sink runs on
// the goroutine that called Trip; file-writing sinks should be quick or
// hand off.
func (r *Recorder) SetSink(sink DumpSink) {
	if sink == nil {
		r.sink.Store(nil)
		return
	}
	r.sink.Store(&sink)
}

// Trips returns how many Trip calls were accepted (dumped).
func (r *Recorder) Trips() uint64 { return r.trips.Load() }

// Trip fires the flight recorder: if a sink is attached and the last
// accepted trip is at least one window in the past, the last window of
// every ring is captured into a Dump and handed to the sink. Returns
// whether a dump was taken. Cheap when rejected (one or two atomic loads),
// so callers may Trip on every occurrence of an anomaly.
func (r *Recorder) Trip(cause TripCause) bool {
	sp := r.sink.Load()
	if sp == nil {
		return false
	}
	now := int64(r.Now())
	last := r.lastTrip.Load()
	if last != 0 && now-last < int64(r.window) {
		return false
	}
	if !r.lastTrip.CompareAndSwap(last, now) {
		return false // lost the race to a concurrent Trip
	}
	d := r.Capture(cause)
	r.trips.Add(1)
	(*sp)(d)
	return true
}

// Capture snapshots the last window of every ring into a Dump, stamping the
// trigger cause. It does not rate-limit; Trip is the gated entry point.
func (r *Recorder) Capture(cause TripCause) *Dump {
	now := r.Now()
	since := uint64(0)
	if w := uint64(r.window); now > w {
		since = now - w
	}
	d := &Dump{
		Epoch:      r.epoch,
		Cause:      cause,
		TakenNanos: now,
		SinceNanos: since,
	}
	for _, rg := range r.Rings() {
		d.Threads = append(d.Threads, ThreadEvents{
			Name:   rg.name,
			Events: rg.Snapshot(nil, since),
		})
	}
	return d
}

// ThreadEvents is one ring's slice of a dump.
type ThreadEvents struct {
	Name   string  `json:"name"`
	Events []Event `json:"events"`
}

// Dump is one flight-recorder capture: every ring's events from the last
// window, plus the capture metadata. WriteTo/ReadDump (dump.go) give it the
// self-describing binary form.
type Dump struct {
	// Epoch is the recorder's wall-clock zero; event Nanos are relative
	// to it.
	Epoch time.Time `json:"epoch"`
	// Cause is why the dump was taken.
	Cause TripCause `json:"cause"`
	// TakenNanos / SinceNanos bound the captured window in recorder time.
	TakenNanos uint64 `json:"taken_ns"`
	SinceNanos uint64 `json:"since_ns"`
	// Threads holds each ring's events, oldest first per ring.
	Threads []ThreadEvents `json:"threads"`
	// Kinds is the kind table of a dump ReadDump decoded: the names of the
	// build that wrote it, so kinds a later build retired keep their names
	// in WriteTimeline and WriteChromeTrace. Nil for a live capture, which
	// this build names.
	Kinds []KindName `json:"kinds,omitempty"`
}

// kindName returns k's name as the dump labels it: from its own kind table
// when it has one, else this build's name.
func (d *Dump) kindName(k Kind) string {
	for _, kn := range d.Kinds {
		if kn.Kind == k {
			return kn.Name
		}
	}
	return k.String()
}

// Len returns the total event count across rings.
func (d *Dump) Len() int {
	n := 0
	for _, t := range d.Threads {
		n += len(t.Events)
	}
	return n
}
