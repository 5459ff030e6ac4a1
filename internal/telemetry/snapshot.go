package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"minesweeper/internal/control"
	"minesweeper/internal/metrics"
)

// Snapshot is the stable export struct: everything the registry knows at one
// instant. It round-trips through JSON (WriteJSON / ReadSnapshot) and renders
// as aligned text (WriteText).
type Snapshot struct {
	// CapturedAtNanos is the capture instant on the registry's monotonic
	// clock (nanoseconds since the registry was created). Two snapshots of
	// the same registry order by it regardless of wall-clock steps, and
	// msstat -diff uses the difference as the interval length.
	CapturedAtNanos int64 `json:"captured_at_ns"`
	// SweepSeq is the sweep-ring sequence number of the newest retained
	// record (0 when none): the position of this snapshot in the sweep
	// stream, stable even when the retained window is smaller than the
	// total.
	SweepSeq uint64 `json:"sweep_seq"`
	// SweepsTotal counts sweeps ever observed; Sweeps retains only the
	// ring's window of recent ones.
	SweepsTotal uint64              `json:"sweeps_total"`
	Sweeps      []SweepRecord       `json:"sweeps"`
	Histograms  []HistogramSnapshot `json:"histograms"`
	Gauges      []GaugeValue        `json:"gauges"`
	// SamplePeriod is the 1-in-n rate at which malloc/free latencies were
	// sampled into their histograms; scale those counts by it to estimate
	// totals. Sweep and pause histograms are exact regardless.
	SamplePeriod uint64 `json:"sample_period"`
	// Governor is the control plane's state (nil when ungoverned).
	Governor *control.State `json:"governor,omitempty"`
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot parses a snapshot previously written by WriteJSON.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("telemetry: decoding snapshot: %w", err)
	}
	return s, nil
}

// fmtNs renders a nanosecond figure compactly: sub-microsecond values keep
// nanosecond resolution (malloc/free latencies live there), everything else
// rounds to the microsecond.
func fmtNs(ns int64) string {
	d := time.Duration(ns)
	if -time.Microsecond < d && d < time.Microsecond {
		return d.String()
	}
	return d.Round(time.Microsecond).String()
}

// fmtCount renders large counts with unit suffixes for table columns.
func fmtCount(n uint64) string {
	switch {
	case n >= 10_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// WriteText renders the snapshot as aligned tables: recent per-sweep phase
// records, histogram summaries, and gauges — the msrun -telemetry and msstat
// output format.
func (s Snapshot) WriteText(w io.Writer) error {
	if s.CapturedAtNanos > 0 {
		if _, err := fmt.Fprintf(w, "captured: +%s (sweep seq %d)\n",
			time.Duration(s.CapturedAtNanos).Round(time.Millisecond), s.SweepSeq); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "sweeps observed: %d (showing last %d)\n", s.SweepsTotal, len(s.Sweeps)); err != nil {
		return err
	}
	if len(s.Sweeps) > 0 {
		tb := metrics.NewTable("sweep", "trigger", "total", "mark", "preclean", "dirty", "recycle", "purge",
			"pages", "preclean-pg", "dirty-pg", "kz-pg", "zero-skip", "locked", "released", "retained", "workers")
		for _, r := range s.Sweeps {
			tb.AddRow(
				fmt.Sprint(r.Seq), r.Trigger.String(),
				fmtNs(r.TotalNanos), fmtNs(r.MarkNanos), fmtNs(r.PrecleanNanos), fmtNs(r.DirtyNanos),
				fmtNs(r.RecycleNanos), fmtNs(r.PurgeNanos),
				fmtCount(r.PagesScanned), fmtCount(r.PrecleanPages), fmtCount(r.DirtyPages), fmtCount(r.PagesKnownZero),
				metrics.FmtMiB(r.BytesZeroSkipped),
				fmtCount(r.EntriesLocked), fmtCount(r.Released), fmtCount(r.Retained),
				fmt.Sprint(r.Workers),
			)
		}
		if _, err := io.WriteString(w, tb.String()); err != nil {
			return err
		}
	}
	if len(s.Histograms) > 0 {
		if s.SamplePeriod > 1 {
			if _, err := fmt.Fprintf(w, "\nmalloc/free latencies sampled 1 in %d ops\n", s.SamplePeriod); err != nil {
				return err
			}
		}
		tb := metrics.NewTable("histogram", "count", "mean", "p50", "p90", "p99", "p99.9", "max")
		for _, h := range s.Histograms {
			if h.Count == 0 {
				tb.AddRow(h.Name, "0", "-", "-", "-", "-", "-", "-")
				continue
			}
			tb.AddRow(h.Name, fmtCount(h.Count),
				fmtNs(int64(h.Mean())),
				"<"+fmtNs(int64(h.Quantile(0.5))),
				"<"+fmtNs(int64(h.Quantile(0.9))),
				"<"+fmtNs(int64(h.Quantile(0.99))),
				"<"+fmtNs(int64(h.Quantile(0.999))),
				"<"+fmtNs(int64(h.Max())))
		}
		if _, err := io.WriteString(w, "\n"+tb.String()); err != nil {
			return err
		}
	}
	if len(s.Gauges) > 0 {
		tb := metrics.NewTable("gauge", "value")
		for _, g := range s.Gauges {
			tb.AddRow(g.Name, fmt.Sprint(g.Value))
		}
		if _, err := io.WriteString(w, "\n"+tb.String()); err != nil {
			return err
		}
	}
	if g := s.Governor; g != nil {
		if _, err := fmt.Fprintf(w,
			"\ngovernor: policy=%s level=%s budget=%s observations=%d decisions=%d\n"+
				"  knobs: sweep=%.4f (base %.4f) unmapped=%.2f (base %.2f) pause=%.2f (base %.2f) helpers=%d (base %d)\n",
			g.Policy, g.Level, metrics.FmtMiB(g.Budget), g.Observations, g.DecisionsTotal,
			g.Knobs.SweepThreshold, g.Base.SweepThreshold,
			g.Knobs.UnmappedFactor, g.Base.UnmappedFactor,
			g.Knobs.PauseThreshold, g.Base.PauseThreshold,
			g.Knobs.Helpers, g.Base.Helpers,
		); err != nil {
			return err
		}
		if len(g.Decisions) > 0 {
			tb := metrics.NewTable("decision", "level", "usage", "age", "sweep->", "helpers->")
			for _, d := range g.Decisions {
				tb.AddRow(
					fmt.Sprint(d.Seq), d.Level.String(),
					fmt.Sprintf("%.2f", d.In.Usage()),
					fmt.Sprint(d.In.AgeEpochs),
					fmt.Sprintf("%.4f", d.After.SweepThreshold),
					fmt.Sprint(d.After.Helpers),
				)
			}
			if _, err := io.WriteString(w, tb.String()); err != nil {
				return err
			}
		}
	}
	return nil
}
