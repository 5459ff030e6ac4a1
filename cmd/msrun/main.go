// Command msrun runs a single benchmark profile under one scheme and prints
// its measurements — the simulated equivalent of
//
//	LD_PRELOAD=lib/minesweeper.so:lib/jemalloc.so ./prog_binary
//
// from the paper's artifact appendix (§A.7).
//
// Usage:
//
//	msrun -bench xalancbmk -scheme minesweeper [-compare] [-scale 1] [-reps 1]
//	msrun -bench xalancbmk -scheme minesweeper -telemetry [-telemetry-json snap.json]
//	msrun -bench pressure -scheme minesweeper -budget 64M [-governor aimd]
//	msrun -bench pressure -budget 24M -events-dump flight.msev
//	msrun -bench espresso -events-addr :8844   # then: msstat -watch -addr :8844
//	msrun -list
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"minesweeper/internal/control"
	"minesweeper/internal/core"
	"minesweeper/internal/events"
	"minesweeper/internal/metrics"
	"minesweeper/internal/schemes"
	"minesweeper/internal/telemetry"
	"minesweeper/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "benchmark profile name (see -list)")
	scheme := flag.String("scheme", "minesweeper", "scheme: "+strings.Join(schemes.Names(), ", "))
	compare := flag.Bool("compare", false, "also run the baseline and print ratios")
	scale := flag.Int("scale", 1, "divide the op budget by this factor")
	reps := flag.Int("reps", 1, "repetitions (median reported)")
	list := flag.Bool("list", false, "list available profiles")
	trace := flag.Bool("trace", false, "print the memory-over-time trace")
	telem := flag.Bool("telemetry", false, "attach the telemetry registry and print per-sweep records and histograms")
	telemJSON := flag.String("telemetry-json", "", "also write the telemetry snapshot as JSON to this file (implies -telemetry)")
	budgetFlag := flag.String("budget", "", "resident-memory budget for the adaptive governor, e.g. 64M or 1G (minesweeper schemes only)")
	governor := flag.String("governor", "", "governor policy: aimd or static (minesweeper schemes only; defaults to aimd when -budget is set)")
	eventsDump := flag.String("events-dump", "", "attach the flight recorder and write the first anomaly-triggered event dump (MSEV binary) to this file; without an anomaly a manual capture of the run's last window is written instead")
	eventsAddr := flag.String("events-addr", "", "attach the flight recorder and serve live event state over HTTP at this address during the run (for msstat -watch)")
	flag.Parse()
	if *telemJSON != "" {
		*telem = true
	}

	if *list {
		tb := metrics.NewTable("profile", "suite", "threads", "kernel")
		for _, p := range workload.AllProfiles() {
			k := p.Kernel
			if k == "" {
				k = "generic"
			}
			tb.AddRow(p.Name, p.Suite, fmt.Sprint(p.Threads), k)
		}
		fmt.Print(tb.String())
		return
	}
	if *bench == "" {
		fmt.Fprintln(os.Stderr, "msrun: -bench is required (try -list)")
		os.Exit(2)
	}
	prof, ok := workload.FindProfile(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "msrun: unknown benchmark %q\n", *bench)
		os.Exit(2)
	}
	factory, err := schemes.ByName(*scheme)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msrun:", err)
		os.Exit(2)
	}
	if *budgetFlag != "" || *governor != "" {
		factory, err = governedFactory(*scheme, *budgetFlag, *governor)
		if err != nil {
			fmt.Fprintln(os.Stderr, "msrun:", err)
			os.Exit(2)
		}
	}
	opts := workload.Options{ScaleDiv: *scale}
	var reg *telemetry.Registry
	if *telem {
		reg = telemetry.NewRegistry(telemetry.DefaultRingCap)
		opts.Telemetry = reg
	}
	var rec *events.Recorder
	if *eventsDump != "" || *eventsAddr != "" {
		rec = events.NewRecorder(events.DefaultRingCap, events.DefaultWindow)
		opts.Events = rec
		if *eventsDump != "" {
			path := *eventsDump
			rec.SetSink(func(d *events.Dump) { writeEventDump(path, d) })
		}
		if *eventsAddr != "" {
			serveEvents(*eventsAddr, rec, reg)
		}
	}

	if *compare {
		c, err := workload.Compare(prof, factory, opts, *reps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "msrun:", err)
			os.Exit(1)
		}
		printResult(c.Result, *trace)
		fmt.Printf("\nvs baseline:\n")
		fmt.Printf("  slowdown      %s\n", metrics.FmtRatio(c.Slowdown))
		fmt.Printf("  avg memory    %s\n", metrics.FmtRatio(c.AvgMem))
		fmt.Printf("  peak memory   %s\n", metrics.FmtRatio(c.PeakMem))
		fmt.Printf("  cpu util      %s\n", metrics.FmtRatio(c.CPUUtil))
		dumpTelemetry(reg, *telemJSON)
		finishEvents(rec, *eventsDump)
		return
	}
	res, err := workload.Run(prof, factory, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msrun:", err)
		os.Exit(1)
	}
	printResult(res, *trace)
	dumpTelemetry(reg, *telemJSON)
	finishEvents(rec, *eventsDump)
}

// writeEventDump persists one flight dump; it is the recorder's sink, so it
// runs on whatever goroutine tripped the anomaly and must not block long.
func writeEventDump(path string, d *events.Dump) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msrun: events:", err)
		return
	}
	defer f.Close()
	if _, err := d.WriteTo(f); err != nil {
		fmt.Fprintln(os.Stderr, "msrun: events: writing dump:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "msrun: events: %s dump (%d events) written to %s\n",
		d.Cause, d.Len(), path)
}

// finishEvents reports flight-recorder activity after the run. When a dump
// file was requested but no anomaly tripped, it writes a manual capture of
// the run's last window so the flag always yields an inspectable dump.
func finishEvents(rec *events.Recorder, dumpPath string) {
	if rec == nil {
		return
	}
	fmt.Printf("\nevents: %d anomaly dump(s) tripped\n", rec.Trips())
	if dumpPath != "" && rec.Trips() == 0 {
		writeEventDump(dumpPath, rec.Capture(events.TripManual))
	}
}

// serveEvents starts the live event server for msstat -watch. It serves for
// the duration of the run; msrun exits (and the server with it) once the
// run's report is printed.
func serveEvents(addr string, rec *events.Recorder, reg *telemetry.Registry) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msrun: -events-addr:", err)
		os.Exit(2)
	}
	fmt.Printf("events: serving live state on http://%s/events/state\n", ln.Addr())
	srv := events.NewServer(rec, reg)
	go func() {
		if err := http.Serve(ln, srv.Handler()); err != nil {
			fmt.Fprintln(os.Stderr, "msrun: events server:", err)
		}
	}()
}

// dumpTelemetry renders the registry's snapshot (sweep records, histograms,
// gauges) after the run, and optionally writes the JSON form to a file for
// msstat to render or diff later.
func dumpTelemetry(reg *telemetry.Registry, jsonPath string) {
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	fmt.Printf("\ntelemetry:\n")
	if err := snap.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "msrun: rendering telemetry:", err)
	}
	if jsonPath == "" {
		return
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msrun:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := snap.WriteJSON(f); err != nil {
		fmt.Fprintln(os.Stderr, "msrun: writing telemetry JSON:", err)
		os.Exit(1)
	}
}

// governedFactory wraps the named MineSweeper scheme in an adaptive control
// plane and prints the effective governed configuration — base knobs, rails,
// budget and policy — so a run's steering envelope is on the record before
// any measurements.
func governedFactory(scheme, budgetStr, policyName string) (schemes.Factory, error) {
	budget, err := metrics.ParseSize(budgetStr)
	if err != nil {
		return schemes.Factory{}, fmt.Errorf("-budget: %w", err)
	}
	if budgetStr != "" && budget == 0 {
		return schemes.Factory{}, fmt.Errorf("-budget: must be positive")
	}
	f, err := schemes.GovernedByName(scheme, budget, policyName)
	if err != nil {
		return schemes.Factory{}, err
	}

	base := core.DefaultConfig().Knobs()
	rails := control.DefaultRails(base)
	if policyName == "" {
		policyName = "aimd"
	}
	fmt.Printf("governor: policy=%s budget=%s\n", policyName, fmtBudget(budget))
	fmt.Printf("  base:   sweep=%.3f unmapped=%.1fx pause=%.2f helpers=%d rescan=%dpg\n",
		base.SweepThreshold, base.UnmappedFactor, base.PauseThreshold, base.Helpers,
		base.RescanBudgetPages)
	fmt.Printf("  rails:  sweep=[%.4f,%.3f] unmapped=[%.1fx,%.1fx] pause=[%.3f,%.2f] helpers=[%d,%d] rescan=[%d,%d]\n",
		rails.SweepThresholdMin, rails.SweepThresholdMax,
		rails.UnmappedFactorMin, rails.UnmappedFactorMax,
		rails.PauseThresholdMin, rails.PauseThresholdMax,
		rails.HelpersMin, rails.HelpersMax,
		rails.RescanBudgetMin, rails.RescanBudgetMax)
	return f, nil
}

func fmtBudget(b uint64) string {
	if b == 0 {
		return "none (age-signal only)"
	}
	return metrics.FmtMiB(b)
}

func printResult(r workload.Result, withTrace bool) {
	fmt.Printf("%s under %s\n", r.Profile, r.Scheme)
	fmt.Printf("  wall time     %v\n", r.Wall.Round(time.Millisecond))
	fmt.Printf("  avg rss       %s\n", metrics.FmtMiB(r.AvgRSS))
	fmt.Printf("  peak rss      %s\n", metrics.FmtMiB(r.PeakRSS))
	fmt.Printf("  mallocs       %d\n", r.Stats.Mallocs)
	fmt.Printf("  frees         %d\n", r.Stats.Frees)
	fmt.Printf("  sweeps        %d\n", r.Stats.Sweeps)
	fmt.Printf("  failed frees  %d\n", r.Stats.FailedFrees)
	fmt.Printf("  double frees  %d\n", r.Stats.DoubleFrees)
	fmt.Printf("  bytes swept   %s\n", metrics.FmtMiB(r.Stats.BytesSwept))
	fmt.Printf("  sweeper busy  %v\n", time.Duration(r.Stats.SweeperCycles).Round(time.Millisecond))
	fmt.Printf("  stw time      %v\n", time.Duration(r.Stats.STWCycles).Round(time.Microsecond))
	fmt.Printf("  pause time    %v\n", time.Duration(r.Stats.PauseNanos).Round(time.Microsecond))
	fmt.Printf("  uaf faults    %d\n", r.UAFs)
	if withTrace {
		fmt.Println("  trace (ms, MiB):")
		for _, s := range r.Trace {
			fmt.Printf("    %6.1f  %8.2f\n", float64(s.At)/1e6, float64(s.RSS)/(1<<20))
		}
	}
}
