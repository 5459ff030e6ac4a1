// Command msstat is a one-shot telemetry reporter, the simulated analogue of
// pointing a stats tool at a process's /debug/vars. It runs nothing itself:
// it renders what msrun recorded — a telemetry snapshot saved with
// msrun -telemetry-json, a flight dump, or a live msrun -events-addr server.
//
// Usage:
//
//	msstat -in snap.json            # render a captured snapshot
//	msstat -in snap.json -json      # normalise/validate: re-emit as JSON
//	msstat -diff old.json new.json  # delta between two snapshots of one run
//	msstat -events flight.msev [-chrome trace.json]   # render a flight dump
//	msstat -watch -addr :8844 [-interval 500ms] [-count 10]  # live view
//	msstat -watch -addr :8844 -addr :8845     # tail several processes side by side
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"minesweeper/internal/events"
	"minesweeper/internal/metrics"
	"minesweeper/internal/telemetry"
)

func main() {
	in := flag.String("in", "", "render a telemetry snapshot JSON file (msrun -telemetry-json)")
	asJSON := flag.Bool("json", false, "emit the snapshot as JSON instead of text")
	diff := flag.String("diff", "", "diff two telemetry snapshots: -diff old.json new.json (the second file is the positional argument)")
	eventsIn := flag.String("events", "", "render a flight-recorder dump (.msev) as a text timeline")
	chromeOut := flag.String("chrome", "", "with -events: also convert the dump to Chrome trace-event JSON at this path (chrome://tracing, Perfetto)")
	watch := flag.Bool("watch", false, "poll a live msrun -events-addr server and render a refreshing view")
	var addrs addrList
	flag.Var(&addrs, "addr", "server address for -watch (host:port or full URL); repeat to tail several processes side by side (default 127.0.0.1:8844)")
	interval := flag.Duration("interval", 500*time.Millisecond, "poll interval for -watch")
	count := flag.Int("count", 0, "number of polls for -watch (0 = until the server goes away)")
	flag.Parse()

	switch {
	case *eventsIn != "":
		renderFlightDump(*eventsIn, *chromeOut)
		return
	case *watch:
		if len(addrs) == 0 {
			addrs = addrList{"127.0.0.1:8844"}
		}
		watchEvents(addrs, *interval, *count)
		return
	case *diff != "":
		newer := flag.Arg(0)
		if newer == "" {
			fatal(fmt.Errorf("-diff needs the second snapshot as a positional argument: msstat -diff old.json new.json"))
		}
		diffSnapshots(*diff, newer)
		return
	}

	if *in == "" {
		fmt.Fprintln(os.Stderr, "msstat: one of -in, -diff, -events or -watch is required")
		flag.Usage()
		os.Exit(2)
	}
	snap, err := readSnapshotFile(*in)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		err = snap.WriteJSON(os.Stdout)
	} else {
		err = snap.WriteText(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
}

// renderFlightDump reads an MSEV flight dump, checks its sweep spans nest
// correctly, renders the merged timeline, and optionally converts it to a
// Chrome trace file.
func renderFlightDump(path, chromePath string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	d, err := events.ReadDump(f)
	f.Close()
	if err != nil {
		fatal(fmt.Errorf("reading %s: %w", path, err))
	}
	if err := events.ValidateSpans(d); err != nil {
		fatal(fmt.Errorf("%s: malformed spans: %w", path, err))
	}
	if err := events.WriteTimeline(os.Stdout, d); err != nil {
		fatal(err)
	}
	if chromePath == "" {
		return
	}
	cf, err := os.Create(chromePath)
	if err != nil {
		fatal(err)
	}
	defer cf.Close()
	if err := events.WriteChromeTrace(cf, d); err != nil {
		fatal(fmt.Errorf("writing %s: %w", chromePath, err))
	}
	fmt.Printf("\nchrome trace written to %s (load in chrome://tracing or ui.perfetto.dev)\n", chromePath)
}

// addrList lets -addr repeat so -watch can tail several processes side by
// side.
type addrList []string

func (a *addrList) String() string { return strings.Join(*a, ",") }

func (a *addrList) Set(v string) error {
	*a = append(*a, v)
	return nil
}

// watchEvents polls msrun -events-addr servers and prints one status line
// per live target per tick: pressure level, in-flight sweep phase, recent
// pauses, and the volume of fresh events since the previous tick. With
// several targets each line is prefixed with its address; a single target's
// lines carry no prefix. A target that cannot be reached on the very first
// tick is fatal; one that disappears mid-watch (its run ended) is reported
// once and dropped, and the watch ends when every target is gone.
func watchEvents(addrs []string, interval time.Duration, count int) {
	type target struct {
		prefix string
		url    string
		after  uint64
		gone   bool
	}
	width := 0
	for _, a := range addrs {
		width = max(width, len(a))
	}
	targets := make([]*target, len(addrs))
	for i, a := range addrs {
		full := a
		if !strings.Contains(full, "://") {
			full = "http://" + full
		}
		targets[i] = &target{url: strings.TrimRight(full, "/") + "/events/state"}
		if len(addrs) > 1 {
			targets[i].prefix = fmt.Sprintf("%-*s  ", width, a)
		}
	}
	live := len(targets)
	for tick := 0; (count == 0 || tick < count) && live > 0; tick++ {
		if tick > 0 {
			time.Sleep(interval)
		}
		for _, tg := range targets {
			if tg.gone {
				continue
			}
			st, err := fetchState(fmt.Sprintf("%s?after=%d", tg.url, tg.after))
			if err != nil {
				if tick == 0 {
					fatal(fmt.Errorf("connecting to %s: %w", tg.url, err))
				}
				fmt.Printf("%smsstat: server gone (run finished)\n", tg.prefix)
				tg.gone = true
				live--
				continue
			}
			fresh := 0
			for _, b := range st.Batches {
				fresh += len(b.Events)
				for _, e := range b.Events {
					if e.Nanos > tg.after {
						tg.after = e.Nanos
					}
				}
			}
			fmt.Printf("%s%s\n", tg.prefix, formatState(st, fresh))
		}
	}
}

// fetchState does one /events/state poll.
func fetchState(url string) (events.State, error) {
	resp, err := http.Get(url)
	if err != nil {
		return events.State{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return events.State{}, fmt.Errorf("server returned %s", resp.Status)
	}
	var st events.State
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return events.State{}, err
	}
	return st, nil
}

// formatState renders one -watch tick as a single line.
func formatState(st events.State, fresh int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "+%-9s", time.Duration(st.NowNanos).Round(time.Millisecond))
	if st.Level != "" {
		fmt.Fprintf(&sb, " level=%-8s", st.Level)
	}
	phase := st.Phase
	if phase == "" {
		phase = "idle"
	}
	fmt.Fprintf(&sb, " sweep=%-8s sweeps=%-4d trips=%d new-events=%d", phase, st.SweepsTotal, st.Trips, fresh)
	if n := len(st.RecentPauses); n > 0 {
		show := st.RecentPauses
		if n > 3 {
			show = show[n-3:]
		}
		parts := make([]string, 0, len(show))
		for _, p := range show {
			parts = append(parts, fmt.Sprintf("%s %s", p.Kind, time.Duration(p.Nanos)))
		}
		fmt.Fprintf(&sb, "  pauses: %s", strings.Join(parts, ", "))
	}
	return sb.String()
}

// diffSnapshots renders the delta between two telemetry snapshots of the
// same registry: interval, sweep progress, histogram count/latency movement,
// and gauge movement. Snapshot order is fixed up via CapturedAtNanos, so the
// arguments can be given either way round.
func diffSnapshots(oldPath, newPath string) {
	a, err := readSnapshotFile(oldPath)
	if err != nil {
		fatal(err)
	}
	b, err := readSnapshotFile(newPath)
	if err != nil {
		fatal(err)
	}
	if b.CapturedAtNanos < a.CapturedAtNanos {
		a, b = b, a
		oldPath, newPath = newPath, oldPath
	}
	dt := time.Duration(b.CapturedAtNanos - a.CapturedAtNanos)
	secs := dt.Seconds()
	fmt.Printf("diff %s -> %s\n", oldPath, newPath)
	fmt.Printf("interval: %s (sweep seq %d -> %d)\n", dt.Round(time.Millisecond), a.SweepSeq, b.SweepSeq)
	rate := ""
	if secs > 0 {
		rate = fmt.Sprintf(" (%.1f/s)", float64(b.SweepsTotal-a.SweepsTotal)/secs)
	}
	fmt.Printf("sweeps: %d -> %d, +%d%s\n", a.SweepsTotal, b.SweepsTotal, b.SweepsTotal-a.SweepsTotal, rate)

	old := make(map[string]telemetry.HistogramSnapshot, len(a.Histograms))
	for _, h := range a.Histograms {
		old[h.Name] = h
	}
	tb := metrics.NewTable("histogram", "count", "+count", "rate/s", "p99(new)")
	for _, h := range b.Histograms {
		prev := old[h.Name]
		delta := int64(h.Count) - int64(prev.Count)
		r := "-"
		if secs > 0 {
			r = fmt.Sprintf("%.1f", float64(delta)/secs)
		}
		p99 := "-"
		if h.Count > 0 {
			p99 = "<" + time.Duration(h.Quantile(0.99)).String()
		}
		tb.AddRow(h.Name, fmt.Sprint(h.Count), fmt.Sprintf("%+d", delta), r, p99)
	}
	fmt.Print("\n" + tb.String())

	oldG := make(map[string]uint64, len(a.Gauges))
	for _, g := range a.Gauges {
		oldG[g.Name] = g.Value
	}
	if len(b.Gauges) > 0 {
		tb := metrics.NewTable("gauge", "old", "new", "delta")
		for _, g := range b.Gauges {
			prev := oldG[g.Name]
			tb.AddRow(g.Name, fmt.Sprint(prev), fmt.Sprint(g.Value),
				fmt.Sprintf("%+d", int64(g.Value)-int64(prev)))
		}
		fmt.Print("\n" + tb.String())
	}
}

// readSnapshotFile loads one telemetry snapshot JSON file.
func readSnapshotFile(path string) (telemetry.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	defer f.Close()
	s, err := telemetry.ReadSnapshot(f)
	if err != nil {
		return telemetry.Snapshot{}, fmt.Errorf("reading %s: %w", path, err)
	}
	return s, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "msstat:", err)
	os.Exit(1)
}
