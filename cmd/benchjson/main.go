// Command benchjson converts `go test -bench` text output (read from stdin)
// into a JSON array, one object per benchmark result line, so CI and the
// EXPERIMENTS.md tooling can diff runs without scraping free-form text:
//
//	go test -run '^$' -bench BenchmarkMallocFree64 -benchtime=300000x -count=5 . \
//	    | go run ./cmd/benchjson > BENCH_free.json
//
// Repeated -count runs of one benchmark are grouped: each output object
// carries every run plus the median, which is the number EXPERIMENTS.md
// records (medians resist the occasional GC-noise outlier that means would
// absorb).
//
// Envelope mode compares a fresh run against a checked-in baseline JSON (a
// previous run of this tool) and fails when any matching benchmark's
// statistic exceeds its recorded value by more than the allowed ratio — the
// regression gate over the committed BENCH_free.json numbers:
//
//	go test -run '^$' -bench 'BenchmarkMallocFree64' -benchtime=300000x -count=5 . \
//	    | go run ./cmd/benchjson -baseline BENCH_free.json \
//	        -match 'MallocFree64' -max-ratio 1.10
//
// Benchmarks present in the fresh run but absent from the baseline are
// reported and skipped (a new benchmark is not a regression); benchmarks in
// the baseline but missing from the run are ignored (the run may be scoped).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark name's aggregated runs.
type result struct {
	Name        string    `json:"name"`
	Procs       int       `json:"procs"`
	Runs        int       `json:"runs"`
	Iterations  []int64   `json:"iterations"`
	NsPerOp     []float64 `json:"ns_per_op"`
	MedianNsOp  float64   `json:"median_ns_per_op"`
	BytesPerOp  []int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp []int64   `json:"allocs_per_op,omitempty"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// splitName separates the GOMAXPROCS suffix go test appends ("Foo-8" → "Foo",
// 8). Benchmarks whose own name ends in "-<digits>" are not expressible in Go
// identifiers, so the split is unambiguous.
func splitName(s string) (string, int) {
	i := strings.LastIndexByte(s, '-')
	if i < 0 {
		return s, 1
	}
	p, err := strconv.Atoi(s[i+1:])
	if err != nil || p <= 0 {
		return s, 1
	}
	return s[:i], p
}

func main() {
	maxRatio := flag.Float64("max-ratio", 1.03, "envelope mode: fail if a benchmark exceeds its baseline by this ratio")
	stat := flag.String("stat", "median", "envelope mode: statistic to compare, median or min (min resists warm-up drift)")
	baseline := flag.String("baseline", "", "envelope mode: baseline JSON file (a previous benchjson run) to compare the fresh run against")
	match := flag.String("match", "", "envelope mode: only check benchmarks whose name contains this substring (empty = all)")
	flag.Parse()

	byName := make(map[string]*result)
	var names []string // first-seen order

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		// A result line: Benchmark<Name>-P  <iters>  <ns> ns/op  [<B> B/op  <allocs> allocs/op]
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		iters, err1 := strconv.ParseInt(f[1], 10, 64)
		ns, err2 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		name, procs := splitName(f[0])
		r, ok := byName[f[0]]
		if !ok {
			r = &result{Name: name, Procs: procs}
			byName[f[0]] = r
			names = append(names, f[0])
		}
		r.Iterations = append(r.Iterations, iters)
		r.NsPerOp = append(r.NsPerOp, ns)
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseInt(f[i], 10, 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "B/op":
				r.BytesPerOp = append(r.BytesPerOp, v)
			case "allocs/op":
				r.AllocsPerOp = append(r.AllocsPerOp, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}

	out := make([]*result, 0, len(names))
	for _, n := range names {
		r := byName[n]
		r.Runs = len(r.NsPerOp)
		r.MedianNsOp = median(r.NsPerOp)
		out = append(out, r)
	}

	if *baseline != "" {
		envelope(out, *baseline, *match, *maxRatio, *stat)
		return
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: encode:", err)
		os.Exit(1)
	}
}

// pickStat extracts the comparison statistic from a result's runs. Median is
// the committed-number statistic (what BENCH_free.json records); min resists
// the warm-up drift a fresh process's early runs carry.
func pickStat(r *result, stat string) float64 {
	switch stat {
	case "min":
		m := r.NsPerOp[0]
		for _, v := range r.NsPerOp[1:] {
			if v < m {
				m = v
			}
		}
		return m
	case "median":
		return r.MedianNsOp
	default:
		fmt.Fprintf(os.Stderr, "benchjson: unknown -stat %q\n", stat)
		os.Exit(2)
		return 0
	}
}

// envelope compares every matching fresh result against the same-named entry
// in the baseline file and exits nonzero if any exceeds its recorded
// statistic by more than maxRatio. The baseline's committed medians come
// from the same fixed-iteration protocol, so the ratio is iteration-count
// comparable; the envelope absorbs host noise between sessions.
func envelope(fresh []*result, baselineFile, match string, maxRatio float64, stat string) {
	data, err := os.ReadFile(baselineFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: envelope:", err)
		os.Exit(2)
	}
	var recorded []*result
	if err := json.Unmarshal(data, &recorded); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: envelope: parsing %s: %v\n", baselineFile, err)
		os.Exit(2)
	}
	byName := make(map[string]*result, len(recorded))
	for _, r := range recorded {
		if len(r.NsPerOp) > 0 {
			byName[r.Name] = r
		}
	}
	checked, failed := 0, 0
	for _, f := range fresh {
		if len(f.NsPerOp) == 0 || (match != "" && !strings.Contains(f.Name, match)) {
			continue
		}
		b, ok := byName[f.Name]
		if !ok {
			fmt.Printf("envelope %s: not in %s, skipped (new benchmark)\n", f.Name, baselineFile)
			continue
		}
		bv, fv := pickStat(b, stat), pickStat(f, stat)
		if bv <= 0 {
			fmt.Fprintf(os.Stderr, "benchjson: envelope: baseline %s %s is %v\n", f.Name, stat, bv)
			os.Exit(2)
		}
		ratio := fv / bv
		verdict := "ok"
		if ratio > maxRatio {
			verdict = "FAILED"
			failed++
		}
		checked++
		fmt.Printf("envelope %s (%s): %.1f ns vs recorded %.1f ns = %.4fx (limit %.2fx) %s\n",
			f.Name, stat, fv, bv, ratio, maxRatio, verdict)
	}
	if checked == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: envelope: no benchmarks matched")
		os.Exit(2)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: envelope FAILED: %d of %d benchmarks regressed\n", failed, checked)
		os.Exit(1)
	}
	fmt.Printf("envelope OK: %d benchmarks within %.2fx of %s\n", checked, maxRatio, baselineFile)
}
