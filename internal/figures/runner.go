// Package figures regenerates every table and figure of the paper's
// evaluation (§5). Each FigNN function runs the required workloads (memoized
// across figures, so one msbench invocation shares baseline runs), renders
// the same rows or series the paper plots, and reports the paper's published
// value next to the measured one where the paper states it.
package figures

import (
	"fmt"
	"io"
	"sync"

	"minesweeper/internal/core"
	"minesweeper/internal/schemes"
	"minesweeper/internal/workload"
)

// Runner executes workload/scheme pairs with memoization.
type Runner struct {
	// Opts tunes runs (scale divisor, seed).
	Opts workload.Options
	// Reps is the repetition count (median taken), the paper's 3.
	Reps int

	mu    sync.Mutex
	cache map[string]workload.Result
}

// NewRunner returns a Runner.
func NewRunner(opts workload.Options, reps int) *Runner {
	if reps < 1 {
		reps = 1
	}
	return &Runner{Opts: opts, Reps: reps, cache: make(map[string]workload.Result)}
}

// result runs (or recalls) prof under the factory.
func (r *Runner) result(prof workload.Profile, f schemes.Factory) (workload.Result, error) {
	key := prof.Suite + "/" + prof.Name + "/" + f.Name
	r.mu.Lock()
	if res, ok := r.cache[key]; ok {
		r.mu.Unlock()
		return res, nil
	}
	r.mu.Unlock()

	best, err := workload.RunMedian(prof, f, r.Opts, r.Reps)
	if err != nil {
		return best, err
	}
	r.mu.Lock()
	r.cache[key] = best
	r.mu.Unlock()
	return best, nil
}

// ratios compares prof under f against the memoized baseline.
func (r *Runner) ratios(prof workload.Profile, f schemes.Factory) (workload.Comparison, error) {
	base, err := r.result(prof, schemes.New(schemes.Baseline))
	if err != nil {
		return workload.Comparison{}, err
	}
	got, err := r.result(prof, f)
	if err != nil {
		return workload.Comparison{}, err
	}
	return workload.Ratios(prof, f.Name, base, got), nil
}

// msVariant builds a MineSweeper factory with a tweaked core config.
func msVariant(name string, mutate func(*core.Config)) schemes.Factory {
	cfg := core.DefaultConfig()
	mutate(&cfg)
	return schemes.Custom(name, cfg)
}

// fprintf writes, ignoring errors (report writers are in-memory or stdout).
func fprintf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}
