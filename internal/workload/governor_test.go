package workload

import (
	"os"
	"testing"

	"minesweeper/internal/alloc"
	"minesweeper/internal/control"
	"minesweeper/internal/core"
	"minesweeper/internal/schemes"
	"minesweeper/internal/telemetry"
)

// TestPressureGovernorConvergence runs the multi-threaded pressure ramp under
// an AIMD governor with a budget the ramp is guaranteed to blow through, and
// checks the control loop actually closed: observations landed, decisions were
// recorded, every published knob stayed inside the rails, and the plane
// tightened below its base at some point. Run under -race this doubles as the
// concurrency stress for the knob-publication and decision-ring paths.
func TestPressureGovernorConvergence(t *testing.T) {
	prof, ok := FindProfile("pressure-mt")
	if !ok {
		t.Fatal("pressure-mt profile missing")
	}
	reg := telemetry.NewRegistry(0)
	f := schemes.Governed("minesweeper-governed", core.DefaultConfig(), 8<<20, control.NewAIMD())
	res, err := Run(prof, f, Options{ScaleDiv: 8, Seed: 42, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Sweeps == 0 {
		t.Fatal("pressure run completed without a single sweep; ramp too small to exercise the governor")
	}

	plane := reg.Governor()
	if plane == nil {
		t.Fatal("telemetry registry has no governor attached")
	}
	if plane.Observations() == 0 {
		t.Fatal("governor observed no sweep boundaries")
	}
	decisions := plane.Ring().Snapshot()
	if len(decisions) == 0 {
		t.Fatal("governor recorded no decisions despite a budget far below the ramp's live set")
	}
	rails, base := plane.Rails(), plane.Base()
	tightened := false
	sawPressure := false
	for _, d := range decisions {
		if !rails.Contains(d.After) {
			t.Fatalf("decision %d published knobs outside rails: %+v (rails %+v)", d.Seq, d.After, rails)
		}
		if d.After.SweepThreshold < base.SweepThreshold {
			tightened = true
		}
		if d.Level >= control.Elevated {
			sawPressure = true
		}
	}
	if !sawPressure {
		t.Errorf("no decision at Elevated or Critical; budget %d vs peak RSS %d should have forced pressure", 8<<20, res.PeakRSS)
	}
	if !tightened {
		t.Error("AIMD never tightened SweepThreshold below base under sustained over-budget pressure")
	}
}

// TestGovernorStaticEquivalence checks the control plane's do-no-harm
// property at workload scale: a Static-policy plane with no budget must
// reproduce the ungoverned heap's statistics byte-for-byte on the same
// deterministic workload. Synchronous mode removes scheduler timing from the
// picture; wall-clock fields are zeroed before comparison.
func TestGovernorStaticEquivalence(t *testing.T) {
	prof, ok := FindProfile("pressure")
	if !ok {
		t.Fatal("pressure profile missing")
	}
	cfg := core.DefaultConfig()
	cfg.Mode = core.Synchronous

	run := func(f schemes.Factory) alloc.Stats {
		t.Helper()
		res, err := Run(prof, f, Options{ScaleDiv: 8, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		st.SweeperCycles, st.STWCycles, st.PauseNanos = 0, 0, 0
		return st
	}

	plain := run(schemes.Custom("minesweeper", cfg))
	static := run(schemes.Governed("minesweeper-static", cfg, 0, control.Static{}))
	if plain != static {
		t.Fatalf("Static-governed stats diverge from ungoverned:\n  plain:  %+v\n  static: %+v", plain, static)
	}
}

// TestSynchronousDeterministic runs the same Synchronous pressure workload
// twice on identically configured ungoverned heaps and requires identical
// statistics (wall-clock fields zeroed): DESIGN §3 promises synchronous
// runs are bit-reproducible, and TestGovernorStaticEquivalence's do-no-harm
// comparison is meaningless unless the ungoverned heap agrees with itself.
func TestSynchronousDeterministic(t *testing.T) {
	prof, ok := FindProfile("pressure")
	if !ok {
		t.Fatal("pressure profile missing")
	}
	cfg := core.DefaultConfig()
	cfg.Mode = core.Synchronous
	var runs [2]alloc.Stats
	for i := range runs {
		res, err := Run(prof, schemes.Custom("minesweeper", cfg), Options{ScaleDiv: 8, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res.Stats
		runs[i].SweeperCycles, runs[i].STWCycles, runs[i].PauseNanos = 0, 0, 0
	}
	if runs[0] != runs[1] {
		t.Fatalf("same-seed synchronous runs diverge:\n  first:  %+v\n  second: %+v", runs[0], runs[1])
	}
}

// TestGovernorBudgetBound is the headline acceptance experiment: measure the
// unbounded peak RSS of the pressure ramp, hand the governor 75%% of it, and
// require the governed peak to stay within 10%% of the budget while the static
// policy blows through. It runs the full-scale profile twice, so it is gated
// behind MS_GOVERNOR_GATE=1 (see Makefile's governor-gate target).
func TestGovernorBudgetBound(t *testing.T) {
	if os.Getenv("MS_GOVERNOR_GATE") == "" {
		t.Skip("set MS_GOVERNOR_GATE=1 to run the budget-bound experiment")
	}
	prof, ok := FindProfile("pressure")
	if !ok {
		t.Fatal("pressure profile missing")
	}
	opts := Options{ScaleDiv: 2, Seed: 11}

	unbounded, err := Run(prof, schemes.New(schemes.MineSweeper), opts)
	if err != nil {
		t.Fatal(err)
	}
	budget := unbounded.PeakRSS * 3 / 4
	t.Logf("unbounded peak RSS %d B; budget %d B", unbounded.PeakRSS, budget)

	governed, err := Run(prof, schemes.Governed("minesweeper-governed", core.DefaultConfig(), budget, control.NewAIMD()), opts)
	if err != nil {
		t.Fatal(err)
	}
	limit := budget + budget/10
	t.Logf("governed peak RSS %d B (limit %d B)", governed.PeakRSS, limit)
	if governed.PeakRSS > limit {
		t.Errorf("governed peak RSS %d exceeds budget+10%% = %d", governed.PeakRSS, limit)
	}
	if unbounded.PeakRSS <= budget {
		t.Errorf("static run peak %d did not exceed the budget %d; experiment is vacuous", unbounded.PeakRSS, budget)
	}
}
