package main

import (
	"math"

	"minesweeper/internal/control"
	"minesweeper/internal/telemetry"
)

// metricDef names one metric. Listed metrics are the ones BENCHMARK.json
// declares and the last output line carries; the rest are printed in the
// report and, for end-to-end metrics, judged by -compare. An end-to-end
// metric that reads exactly zero on some workload (pause, stop-the-world,
// failures) cannot be listed there.
type metricDef struct {
	name   string
	unit   string
	bound  bound // end-to-end metrics only
	listed bool
	higher bool // higher is better; every end-to-end metric is lower-is-better
}

// better is the metric's direction as BENCHMARK.json writes it.
func (d metricDef) better() string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// endToEnd are the metrics a user of the protected heap sees, each computed
// on every workload. All are lower-is-better. The ratios are taken within a
// pair, whose two runs share a time window, because absolute times drift
// between windows on a shared host. Each bound is at least three times the
// run-to-run spread measured on a shared 2-CPU host and at most 25%; only
// slowdown_x, whose spread reaches 13% there, is held by the cap. setup_s,
// whose spread reaches 0.04 ms (28% of a ~0.13 ms median), gets an absolute
// floor of 0.12 ms, three times that (see README.md). BENCHMARK.json
// carries only the relative part of each bound.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: bound{Rel: 0.25, Abs: 1.2e-4}, listed: true},
	{name: "slowdown_x", unit: "ratio", bound: bound{Rel: 0.25}, listed: true},
	{name: "mem_avg_x", unit: "ratio", bound: bound{Rel: 0.25}, listed: true},
	{name: "mem_peak_x", unit: "ratio", bound: bound{Rel: 0.20}, listed: true},
	{name: "rss_peak_mib", unit: "MiB", bound: bound{Rel: 0.20}, listed: true},
	{name: "cpu_util_x", unit: "ratio", bound: bound{Rel: 0.15}, listed: true},
	{name: "pause_ms_per_s", unit: "ms/s", bound: bound{Rel: 0.60, Abs: 5}},
	{name: "stw_mean_us", unit: "us", bound: bound{Rel: 0.25, Abs: 20}},
	{name: "failed_run_frac", unit: "fraction", bound: bound{}},
}

// perLayer are the traced pass's metrics, named after the module measured.
// A percentile is null when too few samples lie beyond it (see percentile);
// listed metrics are defined on every workload at full run length.
var perLayer = []metricDef{
	{name: "core.malloc_ns.p50", unit: "ns", listed: true},
	{name: "core.malloc_ns.p99", unit: "ns"},
	{name: "core.free_ns.p50", unit: "ns", listed: true},
	{name: "core.free_ns.p99", unit: "ns"},
	{name: "core.busy_frac", unit: "fraction", listed: true},
	{name: "core.pause_frac", unit: "fraction", listed: true},
	{name: "jemalloc.malloc_ns.p50", unit: "ns", listed: true},
	{name: "jemalloc.free_ns.p50", unit: "ns", listed: true},
	{name: "jemalloc.busy_frac", unit: "fraction", listed: true},
	{name: "jemalloc.commits_per_s", unit: "1/s", listed: true},
	{name: "jemalloc.decommit_mib_per_s", unit: "MiB/s", listed: true},
	{name: "jemalloc.hook_us.p99", unit: "us"},
	{name: "sweep.per_s", unit: "1/s", listed: true},
	{name: "sweep.total_ms.p50", unit: "ms", listed: true},
	{name: "sweep.total_ms.p95", unit: "ms"},
	{name: "sweep.mark_ms.p50", unit: "ms", listed: true},
	{name: "sweep.mark_gib_per_s", unit: "GiB/s", listed: true, higher: true},
	{name: "sweep.recycle_ms.p50", unit: "ms", listed: true},
	{name: "sweep.purge_ms.p50", unit: "ms", listed: true},
	{name: "sweep.zero_skip_frac", unit: "fraction", listed: true, higher: true},
	{name: "sweep.known_zero_frac", unit: "fraction", listed: true, higher: true},
	{name: "sweep.release_frac", unit: "fraction", listed: true, higher: true},
	{name: "sweep.preclean_ms.p50", unit: "ms"},
	{name: "sweep.stw_us.p50", unit: "us"},
	{name: "sweep.stw_us.p95", unit: "us"},
	{name: "sweep.stw_dirty_pages.p50", unit: "count", listed: true},
	{name: "sweep.stw_frac", unit: "fraction", listed: true},
	{name: "sweep.trigger.threshold_frac", unit: "fraction", listed: true, higher: true},
	{name: "sweep.trigger.unmapped_frac", unit: "fraction", listed: true},
	{name: "sweep.trigger.budget_frac", unit: "fraction", listed: true},
	{name: "sweep.trigger.pause_frac", unit: "fraction", listed: true},
	{name: "quarantine.drain_ns.p50", unit: "ns"},
	{name: "quarantine.drain_ns.mean", unit: "ns", listed: true},
	{name: "quarantine.drains_per_s", unit: "1/s", listed: true},
	{name: "mem.zero_elided_mib_per_s", unit: "MiB/s", listed: true, higher: true},
	{name: "control.decisions_per_s", unit: "1/s", listed: true},
	{name: "control.critical_frac", unit: "fraction"},
	{name: "bench.trace_overhead_x", unit: "ratio", listed: true},
}

// pair is one interleaved pair of runs with the same profile and seed.
type pair struct {
	prot, base run
}

// endToEndOf computes every end-to-end metric of a workload from its valid
// pairs (both runs passed their checks) and its protected heap builds.
func endToEndOf(pairs []pair, setup []float64, attempted, failed int) map[string]summary {
	var slow, avg, peak, rss, cpu, pause, stw []float64
	for _, p := range pairs {
		if p.prot.err != nil || p.base.err != nil {
			continue
		}
		pr, br := p.prot.res, p.base.res
		wall := pr.Wall.Seconds()
		slow = append(slow, wall/br.Wall.Seconds())
		avg = append(avg, float64(pr.AvgRSS)/float64(br.AvgRSS))
		peak = append(peak, float64(pr.PeakRSS)/float64(br.PeakRSS))
		rss = append(rss, float64(pr.PeakRSS)/(1<<20))
		cpu = append(cpu, 1+float64(pr.Stats.SweeperCycles)/float64(pr.Wall))
		pause = append(pause, float64(pr.Stats.PauseNanos)/1e6/wall)
		var mean float64
		if pr.Stats.Sweeps > 0 {
			mean = float64(pr.Stats.STWCycles) / float64(pr.Stats.Sweeps) / 1e3
		}
		stw = append(stw, mean)
	}
	m := map[string]summary{
		"setup_s":        summarize("s", setup),
		"slowdown_x":     summarize("ratio", slow),
		"mem_avg_x":      summarize("ratio", avg),
		"mem_peak_x":     summarize("ratio", peak),
		"rss_peak_mib":   summarize("MiB", rss),
		"cpu_util_x":     summarize("ratio", cpu),
		"pause_ms_per_s": summarize("ms/s", pause),
		"stw_mean_us":    summarize("us", stw),
	}
	if attempted > 0 {
		f := summarize("fraction", []float64{float64(failed) / float64(attempted)})
		f.N = attempted
		m["failed_run_frac"] = f
	}
	return m
}

// layerValue is one per-layer metric: its value (nil when undefined) and
// the number of samples it was computed from.
type layerValue struct {
	Unit  string   `json:"unit"`
	Value *float64 `json:"value"`
	N     int      `json:"n"`
}

// layerSet collects per-layer metrics by name.
type layerSet map[string]layerValue

// set stores v computed from n samples, or null when !ok.
func (l layerSet) set(name string, v float64, ok bool, n int) {
	lv := layerValue{N: n}
	for _, d := range perLayer {
		if d.name == name {
			lv.Unit = d.unit
		}
	}
	if ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
		lv.Value = &v
	}
	l[name] = lv
}

func (l layerSet) pct(name string, xs []float64, q float64) {
	v, ok := percentile(xs, q)
	l.set(name, v, ok, len(xs))
}

// frac stores num/den, null when den is zero.
func (l layerSet) frac(name string, num, den float64, n int) {
	l.set(name, num/den, den > 0, n)
}

// layers computes the per-layer metrics of a traced pair. prot and base
// are its runs, ptr and btr their tracers, and untracedWall the median
// protected wall time of the untraced pairs, in seconds.
func layers(prot, base run, ptr, btr *tracer, untracedWall float64) layerSet {
	out := layerSet{}

	// Mutator calls into each heap, timed from outside.
	for _, side := range []struct {
		layer string
		r     run
		tr    *tracer
	}{{"core", prot, ptr}, {"jemalloc", base, btr}} {
		mallocs, frees, threads := side.tr.heap.calls()
		wall := float64(side.r.res.Wall) * float64(threads)
		md, fd := durations(side.r.spans, side.layer+".malloc"), durations(side.r.spans, side.layer+".free")
		out.pct(side.layer+".malloc_ns.p50", md, 0.5)
		out.pct(side.layer+".free_ns.p50", fd, 0.5)
		if side.layer == "core" {
			out.pct("core.malloc_ns.p99", md, 0.99)
			out.pct("core.free_ns.p99", fd, 0.99)
		}
		busy := mean(md)*float64(mallocs) + mean(fd)*float64(frees)
		out.set(side.layer+".busy_frac", busy/wall, len(md) > 0 && len(fd) > 0, len(md)+len(fd))
	}

	pr := prot.res
	wall := pr.Wall.Seconds()
	out.frac("core.pause_frac", float64(pr.Stats.PauseNanos), float64(pr.Wall), 1)
	out.frac("sweep.stw_frac", float64(pr.Stats.STWCycles), float64(pr.Wall), 1)

	// Extent hooks under the protected heap.
	var commits, decommitBytes float64
	var hooks []float64
	for _, s := range prot.spans {
		switch s.Name {
		case "jemalloc.commit":
			commits++
		case "jemalloc.decommit":
			decommitBytes += float64(s.Bytes)
		default:
			continue
		}
		hooks = append(hooks, float64(s.Dur)/1e3)
	}
	out.set("jemalloc.commits_per_s", commits/wall, true, len(hooks))
	out.set("jemalloc.decommit_mib_per_s", decommitBytes/(1<<20)/wall, true, len(hooks))
	out.pct("jemalloc.hook_us.p99", hooks, 0.99)

	// The heap's own telemetry: one record per sweep.
	snap := ptr.reg.Snapshot()
	out.sweepMetrics(snap.Sweeps, wall)
	for _, h := range snap.Histograms {
		if h.Name != "quarantine_drain_ns" {
			continue
		}
		// Power-of-two buckets: the p50 is the upper bound of its bucket.
		out.set("quarantine.drain_ns.p50", float64(h.Quantile(0.5)), h.Count > 0, int(h.Count))
		out.set("quarantine.drain_ns.mean", h.Mean(), h.Count > 0, int(h.Count))
		out.set("quarantine.drains_per_s", float64(h.Count)/wall, true, int(h.Count))
	}
	for _, g := range snap.Gauges {
		if g.Name == "zero_elided_bytes_total" {
			out.set("mem.zero_elided_mib_per_s", float64(g.Value)/(1<<20)/wall, true, 1)
		}
	}
	var decisions []control.Decision
	var total uint64
	if g := snap.Governor; g != nil {
		decisions, total = g.Decisions, g.DecisionsTotal
	}
	out.set("control.decisions_per_s", float64(total)/wall, true, int(total))
	var critical float64
	for _, d := range decisions {
		if d.Level == control.Critical {
			critical++
		}
	}
	out.frac("control.critical_frac", critical, float64(len(decisions)), len(decisions))

	out.set("bench.trace_overhead_x", wall/untracedWall, untracedWall > 0, 1)
	return out
}

// sweepMetrics derives the sweep layer's metrics from the run's sweep
// records.
func (out layerSet) sweepMetrics(recs []telemetry.SweepRecord, wall float64) {
	n := len(recs)
	col := func(f func(telemetry.SweepRecord) float64) []float64 {
		xs := make([]float64, n)
		for i, r := range recs {
			xs[i] = f(r)
		}
		return xs
	}
	total := col(func(r telemetry.SweepRecord) float64 { return float64(r.TotalNanos) / 1e6 })
	stw := col(func(r telemetry.SweepRecord) float64 { return float64(r.DirtyNanos) / 1e3 })
	var scanned, skipped, pages, knownZero, locked, released, markNanos float64
	triggers := map[telemetry.TriggerReason]float64{}
	for _, r := range recs {
		scanned += float64(r.BytesScanned)
		skipped += float64(r.BytesZeroSkipped)
		pages += float64(r.PagesScanned)
		knownZero += float64(r.PagesKnownZero)
		locked += float64(r.EntriesLocked)
		released += float64(r.Released)
		markNanos += float64(r.MarkNanos + r.PrecleanNanos + r.DirtyNanos)
		triggers[r.Trigger]++
	}
	out.set("sweep.per_s", float64(n)/wall, true, n)
	out.pct("sweep.total_ms.p50", total, 0.5)
	out.pct("sweep.total_ms.p95", total, 0.95)
	out.pct("sweep.mark_ms.p50", col(func(r telemetry.SweepRecord) float64 { return float64(r.MarkNanos) / 1e6 }), 0.5)
	out.set("sweep.mark_gib_per_s", scanned/(1<<30)/(markNanos/1e9), markNanos > 0, n)
	out.pct("sweep.recycle_ms.p50", col(func(r telemetry.SweepRecord) float64 { return float64(r.RecycleNanos) / 1e6 }), 0.5)
	out.pct("sweep.purge_ms.p50", col(func(r telemetry.SweepRecord) float64 { return float64(r.PurgeNanos) / 1e6 }), 0.5)
	out.frac("sweep.zero_skip_frac", skipped, scanned, n)
	out.frac("sweep.known_zero_frac", knownZero, knownZero+pages, n)
	out.frac("sweep.release_frac", released, locked, n)
	out.pct("sweep.preclean_ms.p50", col(func(r telemetry.SweepRecord) float64 { return float64(r.PrecleanNanos) / 1e6 }), 0.5)
	out.pct("sweep.stw_us.p50", stw, 0.5)
	out.pct("sweep.stw_us.p95", stw, 0.95)
	out.pct("sweep.stw_dirty_pages.p50", col(func(r telemetry.SweepRecord) float64 { return float64(r.DirtyPages) }), 0.5)
	for name, t := range map[string]telemetry.TriggerReason{
		"sweep.trigger.threshold_frac": telemetry.TriggerThreshold,
		"sweep.trigger.unmapped_frac":  telemetry.TriggerUnmapped,
		"sweep.trigger.budget_frac":    telemetry.TriggerBudget,
		"sweep.trigger.pause_frac":     telemetry.TriggerPause,
	} {
		out.frac(name, triggers[t], float64(n), n)
	}
}

// durations returns the durations in nanoseconds of the spans named name.
func durations(spans []span, name string) []float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(s.Dur))
		}
	}
	return xs
}
