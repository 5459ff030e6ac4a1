// Command bench is the repository's benchmark. For each workload it runs
// interleaved pairs, the same profile and seed under unprotected jemalloc
// and under the protected MineSweeper heap, and reports the paper's
// end-to-end metrics as ratios within each pair (slowdown, memory, sweeper
// CPU), plus set-up time. A traced pair then times the calls into each layer
// from outside the program and reports per-layer metrics. See README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds 25] [-trace 0|1] [-out FILE]
//	bash bench/run.sh -compare A.json B.json
//
// With -workload NAME the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, where metrics holds the
// end-to-end metrics listed in BENCHMARK.json (-trace 0) or its per-layer
// metrics (-trace 1). The measuring time is fixed; -seconds only states it,
// and any other value is refused.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"text/tabwriter"
	"time"
)

// runSeconds is the measuring time per workload, as BENCHMARK.json's
// run_seconds: on a 2-CPU host it holds 5 to 12 pairs.
const runSeconds = 25

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// resultSet is one invocation's results, as written by -out.
type resultSet struct {
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Go         string    `json:"go"`
	Seed       uint64    `json:"seed"`
	Seconds    int       `json:"seconds"`
	Results    []*result `json:"results"`
}

// benchMain runs the command and returns its exit code: 0 when every run
// passed its checks, 1 when a run failed or -compare found a regression, 2
// on bad usage or an error that stopped the benchmark.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of the first pair; pair i runs seed+i on both sides")
	secs := fs.Int("seconds", runSeconds, fmt.Sprintf("measuring time per workload, fixed at %d: any other value is refused", runSeconds))
	trace := fs.Int("trace", 1, "1 adds a traced pair and prints per-layer metrics last; 0 prints end-to-end metrics last")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced pass writes its spans to")
	out := fs.String("out", "", "also write the results as JSON to this file, for -compare")
	cmp := fs.Bool("compare", false, "compare two files written by -out: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		return compareFiles(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	if *secs != runSeconds {
		fmt.Fprintf(stderr, "bench: the measuring time is fixed at %d s, not %d\n", runSeconds, *secs)
		return 2
	}
	todo := specs
	if *name != "all" {
		s, ok := findSpec(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []spec{s}
	}

	set := resultSet{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Seed: *seed, Seconds: runSeconds}
	fmt.Fprintf(stdout, "bench: nproc %d, GOMAXPROCS %d, %s, seed %d\n", set.NProc, set.GOMAXPROCS, set.Go, set.Seed)
	r := &runner{o: options{
		seed: *seed, seconds: runSeconds * time.Second,
		trace: *trace == 1, spans: *spans, scale: 1,
	}, out: stdout}
	failed := false
	for _, s := range todo {
		res, err := r.measure(s)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		res.write(stdout)
		set.Results = append(set.Results, res)
		failed = failed || res.Failed > 0
	}
	if *out != "" {
		if err := writeJSON(*out, set); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	if len(todo) == 1 {
		printLast(stdout, set.Results[0], r.o.trace)
	}
	if failed {
		return 1
	}
	return 0
}

// write prints a workload's report: every end-to-end metric with its
// quartiles, sample count and bound, then the per-layer metrics.
func (res *result) write(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %s, %s vs baseline; %d pairs, %d runs, %d failed\n",
		res.Workload, res.Profile, res.Scheme, res.Pairs, res.Attempted, res.Failed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tn\tbound")
	for _, d := range endToEnd {
		m, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d\t%s\n", d.name, d.unit,
			num(m.Median), num(m.Q1), num(m.Q3), m.N, boundText(d))
	}
	_ = tw.Flush() // report output; a failed write shows as missing lines
	if res.Layers != nil {
		fmt.Fprintln(w, "per-layer, traced pair:")
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tunit\tvalue\tn")
		for _, d := range perLayer {
			if v, ok := res.Layers[d.name]; ok {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d\n", d.name, d.unit, num(v.Value), v.N)
			}
		}
		_ = tw.Flush()
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
}

func num(v *float64) string {
	if v == nil {
		return "null"
	}
	return strconv.FormatFloat(*v, 'g', 6, 64)
}

func boundText(d metricDef) string {
	b := d.bound
	switch {
	case b.Rel == 0 && b.Abs == 0:
		return "any increase"
	case b.Abs == 0:
		return fmt.Sprintf("+%g%%", b.Rel*100)
	default:
		return fmt.Sprintf("+%g%% / %g %s", b.Rel*100, b.Abs, d.unit)
	}
}

type metricValue struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// printLast prints the one-line JSON result: the listed end-to-end metrics,
// or with trace the listed per-layer metrics.
func printLast(w io.Writer, res *result, trace bool) {
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]metricValue{}}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		if !d.listed {
			continue
		}
		v := metricValue{Unit: d.unit}
		if trace {
			v.Value = res.Layers[d.name].Value
		} else {
			v.Value = res.Metrics[d.name].Median
		}
		if v.Value != nil && (math.IsNaN(*v.Value) || math.IsInf(*v.Value, 0)) {
			v.Value = nil
		}
		line.Metrics[d.name] = v
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite numbers, strings and bools only: cannot fail
	}
	fmt.Fprintf(w, "%s\n", b)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding results: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	return nil
}

func readSet(path string) (resultSet, error) {
	var set resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return set, fmt.Errorf("reading results: %w", err)
	}
	if err := json.Unmarshal(b, &set); err != nil {
		return set, fmt.Errorf("decoding %s: %w", path, err)
	}
	return set, nil
}

func compareFiles(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two result files: -compare A.json B.json")
		return 2
	}
	a, err := readSet(paths[0])
	if err == nil {
		var b resultSet
		b, err = readSet(paths[1])
		if err == nil {
			if compare(stdout, a, b) > 0 {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}

// compare prints, for every workload in both sets and every end-to-end
// metric, how b moved against a under the metric's bound, and returns how
// many moved worse.
func compare(w io.Writer, a, b resultSet) (worseCount int) {
	fmt.Fprintf(w, "A: nproc %d, GOMAXPROCS %d, %s, seed %d\n", a.NProc, a.GOMAXPROCS, a.Go, a.Seed)
	fmt.Fprintf(w, "B: nproc %d, GOMAXPROCS %d, %s, seed %d\n", b.NProc, b.GOMAXPROCS, b.Go, b.Seed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tchange\tbound\tverdict")
	for _, ra := range a.Results {
		var rb *result
		for _, r := range b.Results {
			if r.Workload == ra.Workload {
				rb = r
			}
		}
		if rb == nil {
			fmt.Fprintf(tw, "%s\t(missing from B)\n", ra.Workload)
			continue
		}
		for _, d := range endToEnd {
			ma, mb := ra.Metrics[d.name], rb.Metrics[d.name]
			v := d.bound.judge(ma, mb)
			if v == worse {
				worseCount++
			}
			change := "-"
			if ma.Median != nil && mb.Median != nil && *ma.Median != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(*mb.Median-*ma.Median) / *ma.Median)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n", ra.Workload, d.name, d.unit,
				num(ma.Median), num(mb.Median), change, boundText(d), v)
		}
	}
	_ = tw.Flush()
	return worseCount
}
