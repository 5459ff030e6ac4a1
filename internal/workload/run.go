package workload

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"minesweeper/internal/alloc"
	"minesweeper/internal/events"
	"minesweeper/internal/mem"
	"minesweeper/internal/metrics"
	"minesweeper/internal/schemes"
	"minesweeper/internal/sim"
	"minesweeper/internal/telemetry"
)

// Result is the outcome of running one profile under one scheme.
type Result struct {
	// Profile and Scheme identify the run.
	Profile string
	Scheme  string
	// Wall is the elapsed run time (the paper's slowdown numerator).
	Wall time.Duration
	// AvgRSS and PeakRSS are the psrecord-style memory figures, including
	// allocator metadata.
	AvgRSS  uint64
	PeakRSS uint64
	// Trace is the memory-over-time samples (Figure 8).
	Trace []metrics.Sample
	// Stats is the allocator's final statistics snapshot.
	Stats alloc.Stats
	// UAFs counts faulting accesses the scheme turned into clean faults.
	UAFs uint64
}

// Options tunes a run.
type Options struct {
	// ScaleDiv divides every profile's op budget (for quick runs).
	ScaleDiv int
	// SampleEvery is the RSS sampling interval (default 2ms).
	SampleEvery time.Duration
	// Seed offsets the workload PRNG streams.
	Seed uint64
	// Telemetry, when non-nil, is attached to the scheme's heap (if the
	// heap supports it) for the duration of the run: per-sweep records,
	// malloc/free latency histograms and quarantine gauges accumulate in
	// the registry and survive the run for snapshotting.
	Telemetry *telemetry.Registry
	// Events, when non-nil, attaches a flight recorder to the scheme's heap
	// (if the heap supports it) for the duration of the run: sweep-phase
	// spans, pauses, drains and sampled ops stream into its rings, anomaly
	// trips fire any attached sink, and the recorder survives the run for
	// capture/export.
	Events *events.Recorder
}

// telemetrySink is implemented by heaps that can attach a registry
// (core.Heap; the baseline substrates do not).
type telemetrySink interface {
	SetTelemetry(*telemetry.Registry)
}

// eventsSink is implemented by heaps that can attach a flight recorder.
type eventsSink interface {
	SetEvents(*events.Recorder)
}

// Run executes prof under the scheme built by f and reports measurements.
func Run(prof Profile, f schemes.Factory, opts Options) (Result, error) {
	if opts.ScaleDiv > 1 {
		prof = prof.scaled(opts.ScaleDiv)
	}
	if opts.SampleEvery == 0 {
		opts.SampleEvery = 2 * time.Millisecond
	}
	if prof.Threads < 1 {
		prof.Threads = 1
	}

	space := mem.NewAddressSpace()
	world := sim.NewWorld()
	heap, err := f.Build(space, world)
	if err != nil {
		return Result{}, fmt.Errorf("workload: building %s: %w", f.Name, err)
	}
	prog, err := sim.NewProgram(space, heap, world)
	if err != nil {
		heap.Shutdown()
		return Result{}, err
	}
	if opts.Telemetry != nil {
		if sink, ok := heap.(telemetrySink); ok {
			sink.SetTelemetry(opts.Telemetry)
		}
	}
	if opts.Events != nil {
		if sink, ok := heap.(eventsSink); ok {
			sink.SetEvents(opts.Events)
		}
	}

	sampler := metrics.NewSampler(func() uint64 {
		return space.RSS() + heap.Stats().MetaBytes
	}, opts.SampleEvery)
	sampler.Start()
	start := time.Now()

	errs := make([]error, prof.Threads)
	var wg sync.WaitGroup
	for i := 0; i < prof.Threads; i++ {
		th, err := prog.NewThread(opts.Seed + uint64(i)*1e9 + hashName(prof.Name))
		if err != nil {
			return Result{}, err
		}
		wg.Add(1)
		go func(i int, th *sim.Thread) {
			defer wg.Done()
			defer th.Close()
			errs[i] = runKernel(prog, th, &prof, i)
		}(i, th)
	}
	wg.Wait()
	wall := time.Since(start)
	sampler.Stop()
	heap.Shutdown() // completes any in-flight sweep so statistics quiesce
	st := heap.Stats()

	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	return Result{
		Profile: prof.Name,
		Scheme:  f.Name,
		Wall:    wall,
		AvgRSS:  sampler.Avg(),
		PeakRSS: sampler.Peak(),
		Trace:   sampler.Samples(),
		Stats:   st,
		UAFs:    prog.UAFAccesses(),
	}, nil
}

// hashName derives a per-profile seed component.
func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// Comparison holds one benchmark's baseline-relative measurements.
type Comparison struct {
	Profile  string
	Scheme   string
	Slowdown float64 // adjusted wall / baseline adjusted wall
	AvgMem   float64 // avg RSS / baseline avg RSS
	PeakMem  float64 // peak RSS / baseline peak RSS
	CPUUtil  float64 // 1 + sweeper busy / adjusted wall
	Result   Result
}

// AdjustedWall returns the run time with background sweeper work credited
// back when the host lacks a spare core to absorb it. The paper's machine has
// 4 cores and 8 hardware threads, so concurrent sweeps genuinely overlap the
// application (§4.3); on a host where GOMAXPROCS leaves no spare core for the
// sweeper, wall time conflates mutator slowdown with sweeper CPU, and the
// figure the paper plots is the former (the latter is Figure 12, reported
// separately as CPU utilisation). Stop-the-world and allocation-pause time is
// always charged to the mutator.
func AdjustedWall(r Result, threads int) time.Duration {
	spare := runtime.GOMAXPROCS(0) - threads
	if spare >= 1 {
		return r.Wall
	}
	bg := time.Duration(r.Stats.SweeperCycles) - time.Duration(r.Stats.STWCycles)
	if bg < 0 {
		bg = 0
	}
	adj := r.Wall - bg
	if adj < r.Wall/4 {
		adj = r.Wall / 4
	}
	return adj
}

// Compare runs prof under the baseline and under f, and returns the ratios.
// reps > 1 takes the median wall time of reps runs, as the paper's
// methodology takes the median of three (§A.5).
func Compare(prof Profile, f schemes.Factory, opts Options, reps int) (Comparison, error) {
	base, err := RunMedian(prof, schemes.New(schemes.Baseline), opts, reps)
	if err != nil {
		return Comparison{}, err
	}
	got, err := RunMedian(prof, f, opts, reps)
	if err != nil {
		return Comparison{}, err
	}
	return Ratios(prof, f.Name, base, got), nil
}

// Ratios is the comparison arithmetic shared by Compare and the figures
// runner: got (prof run under scheme) over base, by adjusted wall time,
// average and peak RSS, plus got's sweeper CPU utilisation.
func Ratios(prof Profile, scheme string, base, got Result) Comparison {
	gotW := AdjustedWall(got, prof.Threads)
	baseW := AdjustedWall(base, prof.Threads)
	return Comparison{
		Profile:  prof.Name,
		Scheme:   scheme,
		Slowdown: ratio(float64(gotW), float64(baseW)),
		AvgMem:   ratio(float64(got.AvgRSS), float64(base.AvgRSS)),
		PeakMem:  ratio(float64(got.PeakRSS), float64(base.PeakRSS)),
		CPUUtil:  1 + float64(got.Stats.SweeperCycles)/float64(gotW+1),
		Result:   got,
	}
}

// RunMedian runs prof under f reps times (at least once) and returns the run
// with the median wall time, the paper's median-of-three protocol (§A.5).
func RunMedian(prof Profile, f schemes.Factory, opts Options, reps int) (Result, error) {
	reps = max(reps, 1)
	results := make([]Result, 0, reps)
	for i := 0; i < reps; i++ {
		r, err := Run(prof, f, opts)
		if err != nil {
			return Result{}, err
		}
		results = append(results, r)
	}
	slices.SortStableFunc(results, func(a, b Result) int { return cmp.Compare(a.Wall, b.Wall) })
	return results[len(results)/2], nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}
