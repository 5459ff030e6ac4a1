package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"minesweeper/internal/core"
	"minesweeper/internal/mem"
	"minesweeper/internal/sim"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the tests
// check against the catalogue in metrics.go.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// lastLine parses the one-line JSON result at the end of out.
func lastLine(t *testing.T, out string) (correct bool, metrics map[string]metricValue) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line struct {
		Correct bool                   `json:"correct"`
		Metrics map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return line.Correct, line.Metrics
}

// TestSmoke runs the minimum pairs of every workload at 1/50 of their length and checks
// that every end-to-end metric is printed, finite, and that every run
// passed its output checks.
func TestSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, s := range specs {
		r := &runner{o: options{seed: 1, scale: 50}, out: os.Stderr}
		res, err := r.measure(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted != 2*minPairs {
			t.Errorf("%s: %d of %d runs failed: %v", s.name, res.Failed, res.Attempted, res.Failures)
		}
		var out bytes.Buffer
		res.write(&out)
		printLast(&out, res, false)
		report := out.String()
		for _, d := range endToEnd {
			m := res.Metrics[d.name]
			if m.Median == nil || math.IsNaN(*m.Median) || math.IsInf(*m.Median, 0) {
				t.Errorf("%s: %s = %v, want a finite number", s.name, d.name, m.Median)
			}
			if !strings.Contains(report, "\n"+d.name+" ") {
				t.Errorf("%s: report does not print %s:\n%s", s.name, d.name, report)
			}
		}
		correct, metrics := lastLine(t, report)
		if !correct {
			t.Errorf("%s: last line reports incorrect output", s.name)
		}
		for _, m := range bj.EndToEnd {
			v, ok := metrics[m.Name]
			if !ok || v.Value == nil || math.IsNaN(*v.Value) || math.IsInf(*v.Value, 0) || v.Unit != m.Unit {
				t.Errorf("%s: last line has %s = %+v, want a finite value in %s", s.name, m.Name, v, m.Unit)
			}
		}
	}
}

// TestTracedPair runs the traced pair of one workload at 1/50 of its
// length: every per-layer metric is reported, and the spans written show
// the nesting the self times are computed from.
func TestTracedPair(t *testing.T) {
	s, _ := findSpec("sweep-heavy")
	dir := t.TempDir()
	r := &runner{o: options{seed: 1, trace: true, spans: dir, scale: 50}, out: os.Stderr}
	res, err := r.measure(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted != 2*minPairs+2 {
		t.Fatalf("%d of %d runs failed: %v", res.Failed, res.Attempted, res.Failures)
	}
	for _, d := range perLayer {
		if _, ok := res.Layers[d.name]; !ok {
			t.Errorf("per-layer metric %s missing", d.name)
		}
	}
	for _, name := range []string{"core.malloc_ns.p50", "core.free_ns.p50", "jemalloc.malloc_ns.p50", "sweep.per_s"} {
		if v := res.Layers[name]; v.Value == nil || *v.Value <= 0 {
			t.Errorf("%s = %v (n %d), want a positive value", name, v.Value, v.N)
		}
	}

	f, err := os.Open(filepath.Join(dir, s.name+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatal(err)
		}
		names[sp.Name]++
		if sp.Self < 0 || sp.Self > sp.Dur {
			t.Errorf("span %+v: self time outside [0, duration]", sp)
		}
		if sp.ID != rootSpan && sp.Parent == 0 {
			t.Errorf("span %+v has no parent", sp)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"run", "build", "core.malloc", "core.free", "jemalloc.malloc", "jemalloc.free", "jemalloc.commit"} {
		if names[name] == 0 {
			t.Errorf("no %s span written (have %v)", name, names)
		}
	}
}

// TestFactoryWorldsDistinct builds two heaps from one factory of the
// benchmark and checks the second stops its own World, not the first's: a
// factory whose Build keeps the first World it was given would leave the
// second heap's sweep waiting forever on the first World's mutator.
func TestFactoryWorldsDistinct(t *testing.T) {
	s, _ := findSpec("pause-mt")
	if s.mode != core.MostlyConcurrent {
		t.Fatal("pause-mt must run the stop-the-world sweep")
	}
	f := s.factory(true, nil)
	w1, w2 := sim.NewWorld(), sim.NewWorld()
	h1, err := f.Build(mem.NewAddressSpace(), w1)
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Shutdown()
	a2, err := f.Build(mem.NewAddressSpace(), w2)
	if err != nil {
		t.Fatal(err)
	}
	h2 := a2.(*core.Heap)
	defer h2.Shutdown()

	// A mutator of the first program that never reaches a safepoint: a stop
	// of w1 cannot complete while it is registered.
	w1.Register()
	tid := h2.RegisterThread()
	p, err := h2.Malloc(tid, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Free(tid, p); err != nil {
		t.Fatal(err)
	}
	h2.FlushThread(tid)
	done := make(chan struct{})
	go func() {
		h2.Sweep()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Error("the second heap's sweep is stopping the first heap's World")
	}
	w1.Unregister()
	<-done
	h2.UnregisterThread(tid)
	if st := h2.Stats(); st.Sweeps != 1 || st.STWCycles == 0 {
		t.Errorf("second heap: %d sweeps, %d ns stopped; want one stop-the-world sweep", st.Sweeps, st.STWCycles)
	}
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if bj.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, benchmark measures %d s", bj.RunSeconds, runSeconds)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, s := range specs {
		want = append(want, s.name)
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}

	var listed []metricDef
	for _, d := range endToEnd {
		if d.listed {
			listed = append(listed, d)
		}
	}
	if len(bj.EndToEnd) != len(listed) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(bj.EndToEnd), len(listed))
	}
	for i, m := range bj.EndToEnd {
		d := listed[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != "lower" || m.Bound != d.bound.Rel {
			t.Errorf("BENCHMARK.json end_to_end[%d] = %+v, benchmark has %s in %s, lower, bound %g", i, m, d.name, d.unit, d.bound.Rel)
		}
	}

	listed = listed[:0]
	for _, d := range perLayer {
		if d.listed {
			listed = append(listed, d)
		}
	}
	if len(bj.PerLayer) != len(listed) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(bj.PerLayer), len(listed))
	}
	for i, m := range bj.PerLayer {
		d := listed[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better() {
			t.Errorf("BENCHMARK.json per_layer[%d] = %+v, benchmark has %s in %s, %s", i, m, d.name, d.unit, d.better())
		}
	}
}

// TestSecondsIsFixed checks that -seconds cannot change the run length.
func TestSecondsIsFixed(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := benchMain([]string{"-seconds", "5", "-workload", "compute-bound"}, &out, &errOut); code != 2 || out.Len() != 0 {
		t.Errorf("-seconds 5: exit %d, output %q; want exit 2 and no output", code, out.String())
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		// Quartiles as Python's statistics.quantiles(xs, n=4) gives them.
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); m != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %g, quartiles %g %g; want %g, %g %g", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if s := summarize("s", nil); s.Median != nil || s.N != 0 {
		t.Errorf("summary of nothing = %+v, want a nil median", s)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{1, 0.5, true, 1},
		{4, 0.5, true, 2.5},
		{0, 0.5, false, 0},
		{199, 0.95, false, 0},
		{200, 0.95, true, 190.05},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990.01},
	} {
		v, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || (ok && math.Abs(v-c.want) > 1e-9) {
			t.Errorf("p%g of 1..%d = %g, %v; want %g, %v", c.q*100, c.n, v, ok, c.want, c.ok)
		}
	}
}

func TestBoundRule(t *testing.T) {
	s := func(xs ...float64) summary { return summarize("x", xs) }
	rel := bound{Rel: 0.10}
	floor := bound{Rel: 0.10, Abs: 5}
	for _, c := range []struct {
		name string
		b    bound
		a, c summary
		want verdict
	}{
		{"within the relative bound", rel, s(100, 100, 100), s(109, 109, 109), unchanged},
		{"past the relative bound", rel, s(100, 100, 100), s(111, 111, 111), worse},
		{"past relative, within the floor", floor, s(10, 10, 10), s(14, 14, 14), unchanged},
		{"past both", floor, s(10, 10, 10), s(16, 16, 16), worse},
		{"better by more than bound and spread", rel, s(100, 101, 102), s(80, 81, 82), improved},
		{"spread wider than the bound", rel, s(80, 100, 120), s(85, 105, 125), unresolved},
		{"spread wide but every run better", rel, s(100, 120, 140), s(90, 95, 99), unchanged},
		{"any increase", bound{}, s(0), s(0.1), worse},
		{"no increase", bound{}, s(0), s(0), unchanged},
		{"missing", rel, s(), s(1), unresolved},
	} {
		if got := c.b.judge(c.a, c.c); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareCountsRegressions(t *testing.T) {
	set := func(slowdown float64) resultSet {
		return resultSet{Results: []*result{{
			Workload: "alloc-churn",
			Metrics:  map[string]summary{"slowdown_x": summarize("ratio", []float64{slowdown, slowdown, slowdown})},
		}}}
	}
	var out bytes.Buffer
	if n := compare(&out, set(1.5), set(1.5)); n != 0 {
		t.Errorf("identical sets: %d regressions\n%s", n, out.String())
	}
	out.Reset()
	if n := compare(&out, set(1.5), set(2.0)); n != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("slower set: %d regressions, want 1\n%s", n, out.String())
	}
}
