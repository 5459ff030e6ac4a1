package core

import (
	"testing"

	"minesweeper/internal/control"
	"minesweeper/internal/telemetry"
)

// governedConfig wires a control plane over the test config's knob values.
func governedConfig(budget uint64, pol control.Policy) Config {
	cfg := testConfig()
	cfg.Control = control.NewPlane(control.Config{
		Base: control.Knobs{
			SweepThreshold: cfg.SweepThreshold,
			UnmappedFactor: cfg.UnmappedFactor,
			PauseThreshold: cfg.PauseThreshold,
			Helpers:        cfg.Helpers,
		},
		Budget: budget,
		Policy: pol,
	})
	return cfg
}

func TestGovernedSweepObservesPlane(t *testing.T) {
	cfg := governedConfig(1<<40, control.NewAIMD())
	h, tid := newTestHeap(t, cfg)
	a, err := h.Malloc(tid, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	if h.Control().Observations() != 0 {
		t.Fatal("plane observed before any sweep")
	}
	h.Sweep()
	if got := h.Control().Observations(); got != 1 {
		t.Fatalf("observations after one sweep: %d, want 1", got)
	}
	// A huge budget and a tiny heap: pressure stays Nominal, knobs at base.
	if lvl := h.Control().Level(); lvl != control.Nominal {
		t.Fatalf("level %v, want Nominal", lvl)
	}
	if k := h.Control().Knobs(); k != h.Control().Base() {
		t.Fatalf("knobs drifted with no pressure: %+v", k)
	}
}

func TestGovernedBudgetTriggersSweep(t *testing.T) {
	cfg := governedConfig(1, control.NewAIMD()) // 1-byte budget: always over
	h, tid := newTestHeap(t, cfg)
	// Quarantine more than pauseFloorBytes so the budget trigger is armed.
	var addrs []uint64
	for i := 0; i < 600; i++ {
		a, err := h.Malloc(tid, 4096)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	sweepsBefore := h.Stats().Sweeps
	for _, a := range addrs {
		if err := h.Free(tid, a); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Stats().Sweeps; got <= sweepsBefore {
		t.Fatalf("budget trigger never fired a sweep (sweeps %d)", got)
	}
	// Pressure at a 1-byte budget is as critical as it gets.
	if lvl := h.Control().Level(); lvl != control.Critical {
		t.Fatalf("level %v, want Critical", lvl)
	}
	if h.Control().Ring().Total() == 0 {
		t.Fatal("no decisions recorded under critical pressure")
	}
	for _, d := range h.Control().Ring().Snapshot() {
		if !h.Control().Rails().Contains(d.After) {
			t.Fatalf("decision escaped rails: %+v", d)
		}
	}
}

func TestGovernedBudgetTriggerReason(t *testing.T) {
	cfg := governedConfig(1, control.NewAIMD())
	h, tid := newTestHeap(t, cfg)
	reg := telemetry.NewRegistry(16)
	h.SetTelemetry(reg)
	var addrs []uint64
	for i := 0; i < 600; i++ {
		a, err := h.Malloc(tid, 4096)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		if err := h.Free(tid, a); err != nil {
			t.Fatal(err)
		}
	}
	found := false
	for _, rec := range reg.Ring().Snapshot() {
		if rec.Trigger == telemetry.TriggerBudget {
			found = true
		}
	}
	if !found {
		t.Fatal("no sweep recorded the budget trigger reason")
	}
	snap := reg.Snapshot()
	if snap.Governor == nil {
		t.Fatal("telemetry snapshot missing governor state")
	}
	if snap.Governor.Policy != "aimd" {
		t.Fatalf("governor policy %q, want aimd", snap.Governor.Policy)
	}
	var sawLevel, sawHelpers bool
	for _, g := range snap.Gauges {
		switch g.Name {
		case "governor_pressure_level":
			sawLevel = true
		case "governor_helpers":
			sawHelpers = true
		}
	}
	if !sawLevel || !sawHelpers {
		t.Fatalf("governor gauges missing from snapshot: %+v", snap.Gauges)
	}
}

func TestGovernedStaticMatchesUngoverned(t *testing.T) {
	run := func(cfg Config) []uint64 {
		h, tid := newTestHeap(t, cfg)
		var live []uint64
		for i := 0; i < 4000; i++ {
			a, err := h.Malloc(tid, uint64(16+(i%7)*48))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, a)
			if i%3 == 0 && len(live) > 4 {
				victim := live[len(live)-3]
				live = append(live[:len(live)-3], live[len(live)-2:]...)
				if err := h.Free(tid, victim); err != nil {
					t.Fatal(err)
				}
			}
			if i%512 == 511 {
				h.FlushThread(tid)
				h.Sweep()
			}
		}
		h.FlushThread(tid)
		h.Sweep()
		st := h.Stats()
		return []uint64{
			st.Allocated, st.Quarantined, st.QuarantinedUnmapped,
			st.MetaBytes, st.Sweeps, st.FailedFrees, st.ReleasedFrees,
			st.DoubleFrees, st.BytesSwept,
		}
	}
	plain := run(testConfig())
	governed := run(governedConfig(0, control.Static{}))
	for i := range plain {
		if plain[i] != governed[i] {
			t.Fatalf("stats field %d differs: ungoverned %d, static-governed %d\nplain %v\ngoverned %v",
				i, plain[i], governed[i], plain, governed)
		}
	}
}

func TestGovernorRaisesHelpersAndRecycleWorkers(t *testing.T) {
	cfg := governedConfig(1, control.NewAIMD())
	h, tid := newTestHeap(t, cfg)
	base := len(h.recycleTids)
	var addrs []uint64
	for i := 0; i < 600; i++ {
		a, err := h.Malloc(tid, 4096)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		if err := h.Free(tid, a); err != nil {
			t.Fatal(err)
		}
	}
	h.FlushThread(tid)
	h.Sweep()
	// The helper knob must have been driven up; whether the sweeper's
	// effective worker count follows depends on the host's GOMAXPROCS
	// clamp, but the registered pool must always cover the effective count.
	if k := h.Control().Knobs(); k.Helpers <= cfg.Control.Base().Helpers {
		t.Fatalf("critical pressure did not raise the helper knob: %d", k.Helpers)
	}
	if len(h.recycleTids) < h.sw.Workers() {
		t.Fatalf("recycle pool %d smaller than worker count %d", len(h.recycleTids), h.sw.Workers())
	}
	if len(h.recycleTids) < base {
		t.Fatalf("recycle pool shrank: %d -> %d", base, len(h.recycleTids))
	}
}
