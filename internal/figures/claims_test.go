package figures

import (
	"testing"

	"minesweeper/internal/metrics"
	"minesweeper/internal/schemes"
	"minesweeper/internal/workload"
)

// TestPaperClaimsQualitative is the reproduction's CI check: the paper's
// qualitative claims must hold at full workload scale (single rep, three
// benchmarks; claim 3's absolute bound reads a median of three). Quantitative comparisons live in EXPERIMENTS.md; this test
// guards the orderings that constitute the paper's contribution.
func TestPaperClaimsQualitative(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := NewRunner(workload.Options{ScaleDiv: 1}, 1)

	// Representative benchmarks: the worst case, one moderate, one
	// compute-bound.
	benches := []string{"xalancbmk", "perlbench", "lbm"}
	type cell struct{ slow, mem float64 }
	res := map[string]map[string]cell{}
	for _, bench := range benches {
		prof, ok := workload.FindProfile(bench)
		if !ok {
			t.Fatal(bench)
		}
		res[bench] = map[string]cell{}
		for _, k := range []schemes.Kind{schemes.MineSweeper, schemes.MarkUs, schemes.FFMalloc} {
			c, err := r.ratios(prof, schemes.New(k))
			if err != nil {
				t.Fatal(err)
			}
			res[bench][k.String()] = cell{c.Slowdown, c.AvgMem}
		}
	}

	// Claim 1 (§5.2): on the worst case (xalancbmk), MarkUs is slower
	// than MineSweeper (paper: 2.97x vs 1.73x; quiet-machine runs measure
	// 3.5x vs 2.0x — see EXPERIMENTS.md). Under `go test ./...` this test
	// shares the CPU with other packages, so the margin here is
	// directional with a noise allowance rather than the full gap.
	if ms, mk := res["xalancbmk"]["minesweeper"].slow, res["xalancbmk"]["markus"].slow; mk < ms*0.9 {
		t.Errorf("claim 1: MarkUs (%0.3f) clearly faster than MineSweeper (%0.3f) on xalancbmk", mk, ms)
	}

	// Claim 2 (§5.2): FFMalloc's memory overhead on mixed-lifetime
	// allocation-heavy benchmarks is a multiple of MineSweeper's.
	if ff, ms := res["perlbench"]["ffmalloc"].mem, res["perlbench"]["minesweeper"].mem; ff < 1.5*ms {
		t.Errorf("claim 2: FFMalloc memory (%0.3f) not >> MineSweeper (%0.3f) on perlbench", ff, ms)
	}

	// Claim 3 (§5.2): compute-bound benchmarks see ~zero overhead under
	// MineSweeper (absolute bound), and for every scheme the compute-bound
	// benchmark costs less than the allocation-heavy worst case (ordering;
	// robust to short-run noise). The absolute bound reads one lbm run per
	// side, which `go test ./...` shares the CPU with other packages: its
	// ratio is taken over the median of three runs per side, so one
	// slowed run cannot decide it.
	lbm, _ := workload.FindProfile("lbm")
	c, err := NewRunner(workload.Options{ScaleDiv: 1}, 3).ratios(lbm, schemes.New(schemes.MineSweeper))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Slowdown; got > 1.35 {
		t.Errorf("claim 3: minesweeper slows lbm by %0.3f (> 1.35, median of 3)", got)
	}
	if lb, xa := res["lbm"]["markus"].slow, res["xalancbmk"]["markus"].slow; lb > xa {
		t.Errorf("claim 3: markus lbm (%0.3f) costs more than xalancbmk (%0.3f)", lb, xa)
	}

	// Claim 4 (headline): MineSweeper is cheap on BOTH axes on the
	// allocation-heavy cases: its memory stays well below FFMalloc's and
	// its time well below MarkUs's worst case.
	if ms := res["xalancbmk"]["minesweeper"]; ms.slow > 3.0 || ms.mem > 2.5 {
		t.Errorf("claim 4: MineSweeper xalancbmk = %0.3f time / %0.3f mem", ms.slow, ms.mem)
	}
}

// TestSweepCountOrdering guards Figure 14's content: omnetpp and xalancbmk
// sweep an order of magnitude more than a compute-bound benchmark.
func TestSweepCountOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := NewRunner(workload.Options{ScaleDiv: 4}, 1)
	sweeps := func(name string) uint64 {
		prof, _ := workload.FindProfile(name)
		res, err := r.result(prof, schemes.New(schemes.MineSweeper))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Sweeps
	}
	om, xa, lbm := sweeps("omnetpp"), sweeps("xalancbmk"), sweeps("lbm")
	if om < 3 || xa < 3 {
		t.Errorf("allocation-heavy benchmarks barely sweep: omnetpp=%d xalancbmk=%d", om, xa)
	}
	if lbm > om || lbm > xa {
		t.Errorf("compute-bound lbm sweeps (%d) as much as omnetpp (%d)/xalancbmk (%d)", lbm, om, xa)
	}
}

// TestGeomeanHelperAgainstPaperTable sanity-checks the paper-data table
// against the headline constants (catches transcription drift).
func TestGeomeanHelperAgainstPaperTable(t *testing.T) {
	var ms []float64
	for _, b := range metrics.PaperSpec2006 {
		ms = append(ms, b.MSTime)
	}
	g := metrics.Geomean(ms)
	if g < 1.02 || g > 1.09 {
		t.Errorf("paper per-benchmark MS slowdowns geomean to %0.3f; expected near 1.054", g)
	}
}
