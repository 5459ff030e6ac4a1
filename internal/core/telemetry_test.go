package core

import (
	"strings"
	"sync"
	"testing"

	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
	"minesweeper/internal/telemetry"
)

// TestTelemetrySweepRecord checks that a forced sweep with telemetry attached
// emits one SweepRecord whose work figures match what the sweep actually did.
func TestTelemetrySweepRecord(t *testing.T) {
	h, tid := newTestHeap(t, testConfig())
	reg := telemetry.NewRegistry(16)
	reg.SetSamplePeriod(1) // exact counts for the assertions below
	h.SetTelemetry(reg)

	var addrs []uint64
	for i := 0; i < 50; i++ {
		a, err := h.Malloc(tid, 256)
		if err != nil {
			t.Fatal(err)
		}
		// Write real data so the containing pages are not known-zero: an
		// untouched heap would be dismissed entirely by the known-zero map
		// and scan nothing, which is exactly what the PagesScanned
		// assertion below must not be satisfied by.
		if err := h.space.Store64(a, uint64(i)+1); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		if err := h.Free(tid, a); err != nil {
			t.Fatal(err)
		}
	}
	h.Sweep()

	snap := reg.Snapshot()
	if snap.SweepsTotal != 1 || len(snap.Sweeps) != 1 {
		t.Fatalf("SweepsTotal/len = %d/%d, want 1/1", snap.SweepsTotal, len(snap.Sweeps))
	}
	rec := snap.Sweeps[0]
	if rec.Trigger != telemetry.TriggerForced {
		t.Errorf("Trigger = %v, want forced", rec.Trigger)
	}
	if rec.EntriesLocked != 50 {
		t.Errorf("EntriesLocked = %d, want 50", rec.EntriesLocked)
	}
	if rec.Released != 50 || rec.Retained != 0 {
		t.Errorf("Released/Retained = %d/%d, want 50/0", rec.Released, rec.Retained)
	}
	if rec.TotalNanos <= 0 {
		t.Errorf("TotalNanos = %d, want > 0", rec.TotalNanos)
	}
	if rec.PagesScanned == 0 || rec.BytesScanned == 0 {
		t.Errorf("PagesScanned/BytesScanned = %d/%d, want > 0", rec.PagesScanned, rec.BytesScanned)
	}
	if rec.Workers < 1 {
		t.Errorf("Workers = %d, want >= 1", rec.Workers)
	}
	// Hot-path histograms saw every call.
	for _, hs := range snap.Histograms {
		switch hs.Name {
		case telemetry.HistMalloc:
			if hs.Count != 50 {
				t.Errorf("malloc histogram Count = %d, want 50", hs.Count)
			}
		case telemetry.HistFree:
			if hs.Count != 50 {
				t.Errorf("free histogram Count = %d, want 50", hs.Count)
			}
		case telemetry.HistSweep:
			if hs.Count != 1 {
				t.Errorf("sweep histogram Count = %d, want 1", hs.Count)
			}
		}
	}
	// Gauges include the quarantine set and per-arena-shard occupancy.
	names := make(map[string]bool)
	for _, g := range snap.Gauges {
		names[g.Name] = true
	}
	for _, want := range []string{
		"quarantine_entries", "quarantine_bytes", "quarantine_epoch",
		"quarantine_age_epochs", "sweep_pages_scanned_total",
		"arena_shard0_live_regs", "arena_shard0_extents",
	} {
		if !names[want] {
			t.Errorf("gauge %q missing from snapshot (have %v)", want, snap.Gauges)
		}
	}
}

// TestTelemetryTriggerThreshold checks that a §3.2 threshold-triggered sweep
// is attributed to the threshold cause, not forced.
func TestTelemetryTriggerThreshold(t *testing.T) {
	cfg := testConfig()
	cfg.SweepThreshold = 0.05
	h, tid := newTestHeap(t, cfg)
	reg := telemetry.NewRegistry(16)
	h.SetTelemetry(reg)
	keep, _ := h.Malloc(tid, 4096)
	for i := 0; i < 200 && reg.Ring().Total() == 0; i++ {
		a, err := h.Malloc(tid, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Free(tid, a); err != nil {
			t.Fatal(err)
		}
	}
	_ = keep
	recs := reg.Ring().Snapshot()
	if len(recs) == 0 {
		t.Fatal("threshold sweep never fired")
	}
	if recs[0].Trigger != telemetry.TriggerThreshold {
		t.Errorf("Trigger = %v, want threshold", recs[0].Trigger)
	}
}

// TestTelemetryDetachedIsInert checks SetTelemetry(nil) detaches cleanly: no
// records accumulate afterwards and the hot paths keep working.
func TestTelemetryDetachedIsInert(t *testing.T) {
	h, tid := newTestHeap(t, testConfig())
	reg := telemetry.NewRegistry(16)
	h.SetTelemetry(reg)
	h.SetTelemetry(nil)
	a, err := h.Malloc(tid, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	h.Sweep()
	if n := reg.Ring().Total(); n != 0 {
		t.Errorf("detached registry recorded %d sweeps, want 0", n)
	}
	if c := reg.Malloc.Snapshot().Count; c != 0 {
		t.Errorf("detached registry recorded %d mallocs, want 0", c)
	}
}

// TestTelemetryPauseAttribution drives the §5.7 pause and checks the stall is
// visible in both the pause histogram and a pause-attributed sweep record.
func TestTelemetryPauseAttribution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PauseThreshold = 0.5
	cfg.SweepThreshold = 1e18 // only the pause brake may trigger
	cfg.UnmappedFactor = 0
	cfg.BufferCap = 1
	h, err := New(mem.NewAddressSpace(), cfg, jemalloc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	reg := telemetry.NewRegistry(64)
	h.SetTelemetry(reg)
	id := h.RegisterThread()
	keep, _ := h.Malloc(id, 4096)
	for i := 0; i < 3000; i++ {
		a, err := h.Malloc(id, 2048)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Free(id, a); err != nil {
			t.Fatal(err)
		}
	}
	_ = h.Free(id, keep)
	if h.Stats().PauseNanos == 0 {
		t.Fatal("no pause engaged; cannot check attribution")
	}
	ph := reg.Pause.Snapshot()
	if ph.Count == 0 {
		t.Error("pause histogram empty despite recorded pause time")
	}
	if ph.Sum != h.Stats().PauseNanos {
		t.Errorf("pause histogram Sum = %d, Stats().PauseNanos = %d; want equal",
			ph.Sum, h.Stats().PauseNanos)
	}
	var sawPause bool
	for _, rec := range reg.Ring().Snapshot() {
		if rec.Trigger == telemetry.TriggerPause {
			sawPause = true
		}
	}
	if !sawPause {
		t.Error("no sweep record attributed to the pause trigger")
	}
}

// TestPausePastFloorStalls drives maybePause past pauseFloorBytes with the
// sweep threshold disabled: the allocating thread must stall until a sweep
// completes and the stall must land in Stats().PauseNanos (the §5.7
// accounting fixed by the PauseCycles -> PauseNanos rename).
func TestPausePastFloorStalls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PauseThreshold = 0.5
	cfg.SweepThreshold = 1e18
	cfg.UnmappedFactor = 0
	cfg.BufferCap = 1
	h, err := New(mem.NewAddressSpace(), cfg, jemalloc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	id := h.RegisterThread()
	keep, _ := h.Malloc(id, 4096)
	// Push well past the 1 MiB pause floor. Below the floor the brake must
	// not engage even at an extreme quarantine:heap ratio.
	const each = 4096
	quarantined := uint64(0)
	for quarantined <= pauseFloorBytes/2 {
		a, err := h.Malloc(id, each)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Free(id, a); err != nil {
			t.Fatal(err)
		}
		quarantined += each
	}
	if h.Stats().PauseNanos != 0 {
		t.Fatal("pause engaged below pauseFloorBytes")
	}
	for quarantined <= 4*pauseFloorBytes {
		a, err := h.Malloc(id, each)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Free(id, a); err != nil {
			t.Fatal(err)
		}
		quarantined += each
	}
	_ = h.Free(id, keep)
	st := h.Stats()
	if st.PauseNanos == 0 {
		t.Error("no pause time recorded after exceeding pauseFloorBytes")
	}
	if st.Sweeps == 0 {
		t.Error("pause did not force a sweep; thread cannot have stalled on one")
	}
}

// TestTelemetrySnapshotDuringChurn races snapshots, text rendering, and gauge
// sampling against concurrent mutators and sweeps. Run under -race via
// make check / make race-hot.
func TestTelemetrySnapshotDuringChurn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferCap = 8
	jcfg := jemalloc.DefaultConfig()
	jcfg.Arenas = 2
	h, err := New(mem.NewAddressSpace(), cfg, jcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	reg := telemetry.NewRegistry(32)
	reg.SetSamplePeriod(1) // time every op: maximum write pressure for -race
	h.SetTelemetry(reg)
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			snap := reg.Snapshot()
			var sb strings.Builder
			if err := snap.WriteText(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			churn(t, h, nil, g, 2000)
		}(g)
	}
	wg.Wait()
	h.Sweep()
	close(done)
	readers.Wait()
	snap := reg.Snapshot()
	var mallocs uint64
	for _, hs := range snap.Histograms {
		if hs.Name == telemetry.HistMalloc {
			mallocs = hs.Count
		}
	}
	if mallocs != 4*2000 {
		t.Errorf("malloc histogram Count = %d, want %d", mallocs, 4*2000)
	}
	if snap.SweepsTotal == 0 {
		t.Error("no sweep records under churn")
	}
}
