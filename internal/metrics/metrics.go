// Package metrics provides the measurement machinery the paper's evaluation
// uses: a memory-over-time sampler (the psrecord analogue), geometric means,
// and plain-text table/series renderers for regenerating each figure.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Sample is one point of a memory trace.
type Sample struct {
	// At is the time since sampling started.
	At time.Duration
	// RSS is resident memory in bytes at that instant.
	RSS uint64
}

// Sampler periodically records a memory figure, like the paper's use of
// psrecord to trace physical memory usage (§5.1, Figure 8).
type Sampler struct {
	read     func() uint64
	interval time.Duration

	mu      sync.Mutex
	samples []Sample
	stop    chan struct{}
	done    chan struct{}
	start   time.Time
	stopped bool
}

// NewSampler returns a sampler that calls read every interval.
func NewSampler(read func() uint64, interval time.Duration) *Sampler {
	return &Sampler{read: read, interval: interval}
}

// Start begins sampling in a background goroutine.
func (s *Sampler) Start() {
	s.mu.Lock()
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	s.stopped = false
	s.mu.Unlock()
	s.start = time.Now()
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				v := s.read()
				s.mu.Lock()
				s.samples = append(s.samples, Sample{At: time.Since(s.start), RSS: v})
				s.mu.Unlock()
			}
		}
	}()
}

// Stop ends sampling and records one final sample. It is safe to call
// without a prior Start (nothing was sampling; no final sample is taken) and
// safe to call repeatedly — only the first Stop after a Start ends the
// sampling goroutine and appends the final sample.
func (s *Sampler) Stop() {
	s.mu.Lock()
	if s.stop == nil || s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done
	v := s.read()
	s.mu.Lock()
	s.samples = append(s.samples, Sample{At: time.Since(s.start), RSS: v})
	s.mu.Unlock()
}

// Samples returns the recorded trace.
func (s *Sampler) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, len(s.samples))
	copy(out, s.samples)
	return out
}

// Avg returns the average sampled value (the paper's "average memory usage":
// RAM cost of running many small applications side by side).
func (s *Sampler) Avg() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	var sum uint64
	for _, x := range s.samples {
		sum += x.RSS
	}
	return sum / uint64(len(s.samples))
}

// Peak returns the maximum sampled value (the RAM needed for one large
// application).
func (s *Sampler) Peak() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var peak uint64
	for _, x := range s.samples {
		if x.RSS > peak {
			peak = x.RSS
		}
	}
	return peak
}

// Geomean returns the geometric mean of xs (which must be positive).
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Table renders aligned text tables for figure output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	t.rows = append(t.rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		var line strings.Builder
		for i := range t.header {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				line.WriteString("  ")
			}
			fmt.Fprintf(&line, "%-*s", widths[i], c)
		}
		// No line carries trailing spaces (empty or short final cells
		// would otherwise leave padding; golden-output tests want bytes
		// to be stable).
		b.WriteString(strings.TrimRight(line.String(), " "))
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// SortRows orders rows by the first column, keeping any "geomean" row last.
func (t *Table) SortRows() {
	sort.SliceStable(t.rows, func(i, j int) bool {
		gi := strings.HasPrefix(t.rows[i][0], "geomean")
		gj := strings.HasPrefix(t.rows[j][0], "geomean")
		if gi != gj {
			return gj
		}
		return t.rows[i][0] < t.rows[j][0]
	})
}

// FmtRatio renders a ratio like 1.054 as "1.054" (3 decimals).
func FmtRatio(r float64) string { return fmt.Sprintf("%.3f", r) }

// FmtPct renders an overhead ratio like 1.054 as "+5.4%".
func FmtPct(r float64) string { return fmt.Sprintf("%+.1f%%", (r-1)*100) }

// FmtMiB renders bytes as mebibytes.
func FmtMiB(b uint64) string { return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20)) }

// ParseSize parses a byte count with an optional K/M/G/T binary suffix
// ("64M" = 64 MiB). The inverse, roughly, of FmtMiB — the form -budget
// flags take. A count whose product with its suffix does not fit in 64 bits
// is an error, not a wrapped (and possibly zero, meaning unlimited) size.
func ParseSize(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	in, mult := s, uint64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	case 't', 'T':
		mult, s = 1<<40, s[:len(s)-1]
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q (want e.g. 64M, 1G or a byte count)", s)
	}
	if n > math.MaxUint64/mult {
		return 0, fmt.Errorf("size %q overflows 64 bits", in)
	}
	return n * mult, nil
}
