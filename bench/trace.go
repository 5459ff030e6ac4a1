package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"minesweeper/internal/alloc"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
	"minesweeper/internal/telemetry"
)

// samplePeriod is the 1-in-N rate at which the traced pass times malloc and
// free calls: enough for more than 20,000 samples of each per run on every
// workload but compute-bound, which barely allocates.
const samplePeriod = 32

// maxThreads bounds the mutator thread IDs the wrapper tracks; calls from a
// thread past it go untraced.
const maxThreads = 64

// sweepRingCap holds every sweep record of the longest run (governed has
// about a thousand sweeps), so per-sweep percentiles see the whole run.
const sweepRingCap = 1 << 14

// span is one timed call made across a layer boundary. Start is relative to
// the tracer's epoch, and Self is Dur minus the child spans that ran on the
// same thread (for example the commits a malloc made). Trace is the time the
// tracer itself spent inside the span's interval after the timed call
// returned, recording it; it is taken out of the parent's Dur.
type span struct {
	Run    int    `json:"run"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Thread int64  `json:"thread"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Self   int64  `json:"self_ns"`
	Bytes  uint64 `json:"bytes,omitempty"`
	Trace  int64  `json:"trace_ns,omitempty"`
}

// tracer collects the spans of one traced run in memory. A span's thread is
// its goroutine ID, the only identity both the mutator calls and the extent
// hooks they trigger can see. Looking it up costs about a microsecond, so an
// extent hook looks it up only while some sampled call is open, the only
// time it can have a parent other than the run, and the lookup's cost is
// taken out of that parent; other hook spans carry thread 0.
type tracer struct {
	run   int
	epoch time.Time
	// reg receives the protected heap's own telemetry: one record per sweep,
	// plus the drain histogram and gauges.
	reg *telemetry.Registry
	// heap is the wrapper the run's program calls through.
	heap *tracedHeap

	nextID atomic.Uint64
	// open counts the sampled calls in progress on all threads.
	open atomic.Int64

	mu      sync.Mutex
	spans   []span                 // build and extent-hook spans
	threads map[int64]*threadTrace // mutator threads by goroutine ID
}

func newTracer(run int) *tracer {
	reg := telemetry.NewRegistry(sweepRingCap)
	// The benchmark times malloc and free itself; keep the heap's own
	// latency sampling out of the way.
	reg.SetSamplePeriod(1 << 40)
	tr := &tracer{run: run, epoch: time.Now(), reg: reg, threads: map[int64]*threadTrace{}}
	tr.nextID.Store(rootSpan)
	return tr
}

// rootSpan is the ID of each run's "run" span, the parent of every span
// recorded on another thread.
const rootSpan = 1

// hookThread returns the calling extent hook's goroutine ID, or 0 when no
// sampled call is open and the ID is not needed.
func (tr *tracer) hookThread() int64 {
	if tr.open.Load() == 0 {
		return 0
	}
	return goid()
}

// record adds a span that ran on goroutine gid from start to end. Its
// parent is the sampled call open on that goroutine, if any, and the run
// otherwise.
func (tr *tracer) record(name string, gid int64, start, end time.Time, bytes uint64) {
	id := tr.nextID.Add(1)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	parent := uint64(rootSpan)
	if t := tr.threads[gid]; gid != 0 && t != nil && t.open != 0 {
		parent = t.open
	}
	tr.spans = append(tr.spans, span{
		Run: tr.run, ID: id, Parent: parent, Thread: gid, Name: name,
		Start: int64(start.Sub(tr.epoch)), Dur: int64(end.Sub(start)), Bytes: bytes,
		Trace: int64(time.Since(end)),
	})
}

// finish records the run span itself and returns every span with the
// tracer's time taken out of its duration and its self time filled in.
func (tr *tracer) finish(start, end time.Time) []span {
	tr.mu.Lock()
	all := append([]span{{
		Run: tr.run, ID: rootSpan, Thread: goid(), Name: "run",
		Start: int64(start.Sub(tr.epoch)), Dur: int64(end.Sub(start)),
	}}, tr.spans...)
	for _, t := range tr.threads {
		all = append(all, t.spans...)
	}
	tr.mu.Unlock()
	byID := make(map[uint64]int, len(all))
	for i := range all {
		byID[all[i].ID] = i
	}
	// Children on the parent's thread ran inside it.
	nested := func(s span) (int, bool) {
		p, ok := byID[s.Parent]
		return p, ok && s.ID != rootSpan && all[p].Thread == s.Thread
	}
	for _, s := range all {
		if p, ok := nested(s); ok {
			all[p].Dur -= s.Trace
		}
	}
	for i := range all {
		all[i].Self = all[i].Dur
	}
	for _, s := range all {
		if p, ok := nested(s); ok {
			all[p].Self -= s.Dur
		}
	}
	return all
}

// threadTrace is one mutator thread's sampling state. Only the goroutine
// that owns the thread touches it until the run has ended, so an unsampled
// call costs a countdown decrement and nothing shared.
type threadTrace struct {
	gid int64
	// Separate countdowns, as the heap's own telemetry keeps them: with one
	// shared countdown a program that alternates free and malloc would only
	// ever sample one of the two.
	mallocCountdown int
	freeCountdown   int
	mallocs         uint64
	frees           uint64
	open            uint64 // ID of the sampled call in progress, 0 when none
	spans           []span
}

// tracedHeap times the calls the program makes into a heap: every call is
// counted, and one in samplePeriod per thread becomes a span. Each slot of
// threads is written once, by RegisterThread, before the goroutine that
// reads it starts.
type tracedHeap struct {
	alloc.Allocator
	tr         *tracer
	mallocName string
	freeName   string
	threads    [maxThreads]*threadTrace
}

func (tr *tracer) wrap(layer string, h alloc.Allocator) *tracedHeap {
	tr.heap = &tracedHeap{Allocator: h, tr: tr, mallocName: layer + ".malloc", freeName: layer + ".free"}
	return tr.heap
}

// RegisterThread runs on the goroutine that creates the thread, before the
// thread's own goroutine starts; the goroutine ID is taken at its first call.
func (h *tracedHeap) RegisterThread() alloc.ThreadID {
	tid := h.Allocator.RegisterThread()
	if tid >= 0 && int(tid) < maxThreads {
		h.threads[tid] = &threadTrace{}
	}
	return tid
}

func (h *tracedHeap) thread(tid alloc.ThreadID) *threadTrace {
	if tid < 0 || int(tid) >= maxThreads {
		return nil
	}
	return h.threads[tid]
}

func (h *tracedHeap) Malloc(tid alloc.ThreadID, size uint64) (uint64, error) {
	t := h.thread(tid)
	if t == nil {
		return h.Allocator.Malloc(tid, size)
	}
	t.mallocs++
	if t.mallocCountdown > 1 {
		t.mallocCountdown--
		return h.Allocator.Malloc(tid, size)
	}
	t.mallocCountdown = samplePeriod
	id := h.begin(t)
	start := time.Now()
	a, err := h.Allocator.Malloc(tid, size)
	h.end(t, id, h.mallocName, start)
	return a, err
}

func (h *tracedHeap) Free(tid alloc.ThreadID, addr uint64) error {
	t := h.thread(tid)
	if t == nil {
		return h.Allocator.Free(tid, addr)
	}
	t.frees++
	if t.freeCountdown > 1 {
		t.freeCountdown--
		return h.Allocator.Free(tid, addr)
	}
	t.freeCountdown = samplePeriod
	id := h.begin(t)
	start := time.Now()
	err := h.Allocator.Free(tid, addr)
	h.end(t, id, h.freeName, start)
	return err
}

// begin opens a sampled call on t, registering t's goroutine with the tracer
// the first time so extent hooks run inside the call can find their parent.
func (h *tracedHeap) begin(t *threadTrace) uint64 {
	if t.gid == 0 {
		t.gid = goid()
		h.tr.mu.Lock()
		h.tr.threads[t.gid] = t
		h.tr.mu.Unlock()
	}
	t.open = h.tr.nextID.Add(1)
	h.tr.open.Add(1)
	return t.open
}

func (h *tracedHeap) end(t *threadTrace, id uint64, name string, start time.Time) {
	d := time.Since(start)
	h.tr.open.Add(-1)
	t.open = 0
	t.spans = append(t.spans, span{
		Run: h.tr.run, ID: id, Parent: rootSpan, Thread: t.gid, Name: name,
		Start: int64(start.Sub(h.tr.epoch)), Dur: int64(d),
	})
}

// calls returns how many mallocs and frees the program made through h, and
// from how many threads. It is called after the run has ended.
func (h *tracedHeap) calls() (mallocs, frees uint64, threads int) {
	for _, t := range h.threads {
		if t != nil {
			mallocs += t.mallocs
			frees += t.frees
			threads++
		}
	}
	return mallocs, frees, threads
}

// tracedHooks times jemalloc's extent commits and decommits. They are passed
// as jemalloc.Config.Hooks to core.New, which installs them as the inner
// hooks under its own bookkeeping, so the heap behaves as it does untraced.
type tracedHooks struct {
	inner jemalloc.ExtentHooks
	tr    *tracer
}

func (h tracedHooks) Commit(space *mem.AddressSpace, base, size uint64) error {
	start := time.Now()
	err := h.inner.Commit(space, base, size)
	end := time.Now()
	h.tr.record("jemalloc.commit", h.tr.hookThread(), start, end, size)
	return err
}

func (h tracedHooks) Decommit(space *mem.AddressSpace, base, size uint64) error {
	start := time.Now()
	err := h.inner.Decommit(space, base, size)
	end := time.Now()
	h.tr.record("jemalloc.decommit", h.tr.hookThread(), start, end, size)
	return err
}

// goid returns the calling goroutine's ID, parsed from the header line of
// its stack trace ("goroutine 42 [running]:"). It runs outside the timings.
func goid() int64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// writeSpans writes spans as JSON lines to dir/name, creating dir.
func writeSpans(dir, name string, spans []span) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating span directory: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("closing span file: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
