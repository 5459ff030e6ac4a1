package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"time"

	"minesweeper/internal/mem"
	"minesweeper/internal/sim"
	"minesweeper/internal/workload"
)

const (
	// minPairs pairs run however long they take, so every median has a
	// middle; after them, pairs run while the next one fits in the
	// measuring time.
	minPairs = 3
	// setupBuilds protected heaps are built and shut down before the pairs;
	// setup_s is the median of their build times. A build takes ~0.15 ms
	// with a long upper tail, so the median needs many builds to keep its
	// own sampling noise below the host's drift.
	setupBuilds = 101
	// minDeadline keeps the watchdog from firing on the short runs of a
	// scaled-down smoke test.
	minDeadline = 5 * time.Second
)

type options struct {
	seed    uint64
	seconds time.Duration // measuring time for the untraced pairs
	trace   bool
	spans   string // directory for span files; "" writes none
	scale   int    // divides each run's ops and live set; 1 in real runs
}

// result is everything measured on one workload.
type result struct {
	Workload  string                `json:"workload"`
	Profile   string                `json:"profile"`
	Scheme    string                `json:"scheme"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Failures  []string              `json:"failures,omitempty"`
	Pairs     int                   `json:"pairs"`
	Metrics   map[string]summary    `json:"metrics"`
	Layers    map[string]layerValue `json:"layers,omitempty"`

	pairs []pair
	setup []float64 // protected Build times, s
}

// runner measures workloads one after another. The watchdog reads the
// results from its own goroutine while a run hangs, so they are guarded by
// mu.
type runner struct {
	o   options
	out io.Writer

	mu      sync.Mutex
	results []*result
}

// measure runs the setup builds, the untraced pairs and, with tracing on,
// the traced pair of one workload.
func (r *runner) measure(s spec) (*result, error) {
	prof, err := s.prof()
	if err != nil {
		return nil, err
	}
	res := &result{Workload: s.name, Profile: s.profile, Scheme: s.scheme()}
	r.mu.Lock()
	r.results = append(r.results, res)
	r.mu.Unlock()

	setup, err := setupTimes(s)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	res.setup = setup
	r.mu.Unlock()

	start := time.Now()
	var last time.Duration
	for i := 0; i < minPairs || time.Since(start)+last <= r.o.seconds; i++ {
		t0 := time.Now()
		seed := r.o.seed + uint64(i)
		var p pair
		if i%2 == 0 {
			p.prot = r.runSide(s, prof, true, seed, nil)
			p.base = r.runSide(s, prof, false, seed, nil)
		} else {
			p.base = r.runSide(s, prof, false, seed, nil)
			p.prot = r.runSide(s, prof, true, seed, nil)
		}
		last = time.Since(t0)
		r.mu.Lock()
		res.pairs = append(res.pairs, p)
		res.count(fmt.Sprintf("pair %d", i), p)
		r.mu.Unlock()
	}
	if r.o.trace {
		if err := r.traced(s, prof, res); err != nil {
			return nil, err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	res.summarize()
	return res, nil
}

// count adds a pair's runs to the attempted and failed totals. Caller
// holds the runner's lock.
func (res *result) count(what string, p pair) {
	for _, rn := range []run{p.prot, p.base} {
		res.Attempted++
		if rn.err != nil {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("%s %s: %v", what, rn.res.Scheme, rn.err))
		}
	}
}

// summarize fills the exported end-to-end summaries from the raw runs.
// Caller holds the runner's lock.
func (res *result) summarize() {
	res.Pairs = len(res.pairs)
	res.Metrics = endToEndOf(res.pairs, res.setup, res.Attempted, res.Failed)
}

// setupTimes builds setupBuilds protected heaps, each over a fresh address
// space as a run would, and returns their build times in seconds. Every
// build starts from the same state: the previous heap collected, and its
// memory still mapped for reuse, because the Go collector is held off for the
// whole loop. Left on, it would sometimes start a cycle inside a build, and
// sometimes return freed memory to the OS so that a build pays page faults
// instead of clearing reused memory; either way the build times were bimodal
// and their median flipped between the modes from run to run.
func setupTimes(s spec) ([]float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var times []float64
	for i := 0; i < setupBuilds; i++ {
		f := s.factory(true, nil)
		space, world := mem.NewAddressSpace(), sim.NewWorld()
		runtime.GC()
		start := time.Now()
		h, err := f.Build(space, world)
		took := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("workload %s: building the protected heap: %w", s.name, err)
		}
		h.Shutdown()
		times = append(times, took.Seconds())
	}
	return times, nil
}

// runSide runs one side of a pair under the watchdog. With tr non-nil the
// run is traced and its spans are returned in the run.
func (r *runner) runSide(s spec, prof workload.Profile, protected bool, seed uint64, tr *tracer) run {
	runtime.GC()
	var rn run
	f := s.factory(protected, tr)
	deadline := max(watchdogFactor*s.expect/time.Duration(r.o.scale), minDeadline)
	what := fmt.Sprintf("%s %s seed %d", s.name, f.Name, seed)
	watchdog := time.AfterFunc(deadline, func() { r.expire(what, deadline) })
	start := time.Now()
	res, err := workload.Run(prof, f, workload.Options{Seed: seed, ScaleDiv: r.o.scale})
	end := time.Now()
	watchdog.Stop()
	res.Scheme = f.Name
	rn.res, rn.err = res, check(res, err)
	if tr != nil {
		rn.spans = tr.finish(start, end)
	}
	return rn
}

// expire is the watchdog: a run has passed its deadline. It writes every
// goroutine's stack, counts the run as failed, prints what has been
// measured and exits.
func (r *runner) expire(what string, deadline time.Duration) {
	fmt.Fprintf(os.Stderr, "watchdog: %s still running after %v\n", what, deadline)
	_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2) // best effort before exiting
	r.mu.Lock()
	res := r.results[len(r.results)-1]
	res.Attempted++
	res.Failed++
	res.Failures = append(res.Failures, what+": hung")
	res.summarize()
	for _, done := range r.results {
		done.write(r.out)
	}
	printLast(r.out, res, r.o.trace)
	r.mu.Unlock()
	os.Exit(2)
}

// traced runs the traced pair, protected side first, on the first pair's
// seed, and computes the per-layer metrics from it.
func (r *runner) traced(s spec, prof workload.Profile, res *result) error {
	seed := r.o.seed
	ptr, btr := newTracer(1), newTracer(2)
	p := pair{
		prot: r.runSide(s, prof, true, seed, ptr),
		base: r.runSide(s, prof, false, seed, btr),
	}
	r.mu.Lock()
	res.count("traced pair", p)
	r.mu.Unlock()
	if p.prot.err != nil || p.base.err != nil {
		return nil
	}
	var walls []float64
	for _, q := range res.pairs {
		if q.prot.err == nil && q.base.err == nil {
			walls = append(walls, q.prot.res.Wall.Seconds())
		}
	}
	l := layers(p.prot, p.base, ptr, btr, median(walls))
	r.mu.Lock()
	res.Layers = l
	r.mu.Unlock()
	if r.o.spans == "" {
		return nil
	}
	spans := append(p.prot.spans, p.base.spans...)
	return writeSpans(r.o.spans, s.name+".jsonl", spans)
}
