package core

import (
	"sync"
	"testing"

	"minesweeper/internal/alloc"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
	"minesweeper/internal/telemetry"
)

// freeOnStopWorld is a StopTheWorld stub whose Stop() frees an allocation —
// it injects a free at the exact point of a sweep where snapshot-at-beginning
// matters most: after lock-in and the concurrent mark, inside the
// stop-the-world window. Free from here is re-entrancy safe (the sweep
// trigger is disabled in the oracle test's config, and ring publication does
// not touch the sweep lock).
type freeOnStopWorld struct {
	h     *Heap
	tid   alloc.ThreadID
	addr  uint64
	freed bool
	stops int
}

func (w *freeOnStopWorld) Stop() {
	w.stops++
	if !w.freed && w.addr != 0 {
		w.freed = true
		if err := w.h.Free(w.tid, w.addr); err != nil {
			panic(err)
		}
	}
}

func (w *freeOnStopWorld) Start() {}

// TestConcurrentMarkSnapshotOracle pins the snapshot-at-beginning contract:
// an object freed while a pipelined sweep is already past its lock-in must
// never be released by that same sweep — only by a later one whose mark pass
// covered the whole window in which its last pointers could have been
// stored.
func TestConcurrentMarkSnapshotOracle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = MostlyConcurrent
	cfg.SweepThreshold = 1e18 // manual sweeps only
	cfg.UnmappedFactor = 0
	cfg.PauseThreshold = 0
	cfg.BufferCap = 1 // publish every free immediately
	cfg.Helpers = 2
	w := &freeOnStopWorld{}
	cfg.World = w
	h, tid := newTestHeap(t, cfg)
	w.h, w.tid = h, tid

	a, err := h.Malloc(tid, 48)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Malloc(tid, 48)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	h.FlushThread(tid)
	w.addr = b // freed mid-sweep, inside the first STW window

	h.Sweep()
	if w.stops != 1 {
		t.Fatalf("stops = %d after first sweep, want 1", w.stops)
	}
	if h.q.Contains(a) {
		t.Error("entry locked in before the sweep was not released")
	}
	if !h.q.Contains(b) {
		t.Fatal("entry freed DURING the sweep was released by the same sweep")
	}

	h.Sweep()
	if h.q.Contains(b) {
		t.Error("entry freed during sweep 1 not released by sweep 2")
	}
	if st := h.Stats(); st.Quarantined != 0 {
		t.Errorf("Quarantined = %d after second sweep, want 0", st.Quarantined)
	}
}

// TestThresholdSweepTakesWholeQuarantine: frees from two threads bound to
// different arena shards, one large and one small, are both released by the
// single threshold-triggered sweep the large free sets off. Every sweep locks
// in the whole quarantine, whichever arena the frees came from.
func TestThresholdSweepTakesWholeQuarantine(t *testing.T) {
	jcfg := jemalloc.DefaultConfig()
	jcfg.Arenas = 4
	cfg := testConfig() // Synchronous, BufferCap 1: every free publishes immediately
	cfg.SweepThreshold = 0.15
	// The two frees straddle sweepFloorBytes: the small free alone stays
	// under the floor, the large one crosses it.
	cfg.Unmapping = false // keep both frees on the mapped (threshold) account
	h, err := New(mem.NewAddressSpace(), cfg, jcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Shutdown)
	reg := telemetry.NewRegistry(16)
	h.SetTelemetry(reg)
	big, small := h.RegisterThread(), h.RegisterThread()
	a, err := h.Malloc(big, sweepFloorBytes+8<<10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Malloc(small, 100)
	if err != nil {
		t.Fatal(err)
	}
	jh := h.sub.(*jemalloc.Heap)
	arenas := 0
	for i := 0; i < jh.NumArenas(); i++ {
		if jh.ShardStats(i).Extents > 0 {
			arenas++
		}
	}
	if arenas != 2 {
		t.Fatalf("the two threads allocated from %d arenas, want 2", arenas)
	}

	if err := h.Free(small, b); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.Sweeps != 0 {
		t.Fatalf("the small free alone triggered %d sweeps, want 0", st.Sweeps)
	}
	if err := h.Free(big, a); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if len(snap.Sweeps) != 1 {
		t.Fatalf("sweep records = %d, want 1", len(snap.Sweeps))
	}
	if rec := snap.Sweeps[0]; rec.Trigger != telemetry.TriggerThreshold || rec.Released != 2 {
		t.Errorf("sweep: trigger %s, released %d; want threshold, 2", rec.Trigger, rec.Released)
	}
	if h.q.Contains(a) || h.q.Contains(b) {
		t.Errorf("still quarantined after the threshold sweep: large %v, small %v",
			h.q.Contains(a), h.q.Contains(b))
	}
}

// writeOnStopWorld is a StopTheWorld stub whose Stop() stores to a page —
// the write lands after the sweep's ClearSoftDirty and concurrent mark, right
// at the head of the stop-the-world window, so the dirty re-scan must visit
// (at least) that page. It makes the re-scan accounting deterministic on any
// host, including single-CPU ones where mutators never overlap the mark.
type writeOnStopWorld struct {
	space *mem.AddressSpace
	addr  uint64
	stops int
}

func (w *writeOnStopWorld) Stop() {
	w.stops++
	if w.addr != 0 {
		if err := w.space.Store64(w.addr, 0xbeef); err != nil {
			panic(err)
		}
	}
}

func (w *writeOnStopWorld) Start() {}

// TestDirtyRescanSeesWindowWrite: a store performed inside the stop-the-world
// window entry (i.e. after the concurrent mark consumed its dirty set) is
// re-scanned by the pipelined sweep, and the window lands in the exact stw
// pause histogram.
func TestDirtyRescanSeesWindowWrite(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = MostlyConcurrent
	cfg.RescanBudgetPages = DefaultRescanBudgetPages
	w := &writeOnStopWorld{}
	cfg.World = w
	h, tid := newTestHeap(t, cfg)
	reg := telemetry.NewRegistry(64)
	h.SetTelemetry(reg)
	w.space = h.space

	keep, err := h.Malloc(tid, 64)
	if err != nil {
		t.Fatal(err)
	}
	w.addr = keep // live page, dirtied at the head of every STW window
	a, _ := h.Malloc(tid, 48)
	_ = h.Free(tid, a)
	h.Sweep()

	if w.stops != 1 {
		t.Fatalf("stops = %d, want 1", w.stops)
	}
	snap := reg.Snapshot()
	if len(snap.Sweeps) != 1 {
		t.Fatalf("sweep records = %d, want 1", len(snap.Sweeps))
	}
	rec := snap.Sweeps[0]
	if rec.DirtyPages == 0 {
		t.Error("DirtyPages = 0; the STW window write was not re-scanned")
	}
	var stw *telemetry.HistogramSnapshot
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == telemetry.HistStw {
			stw = &snap.Histograms[i]
		}
	}
	if stw == nil || stw.Count != 1 {
		t.Fatalf("stw histogram = %+v, want exactly 1 sample", stw)
	}
}

// TestPrecleanRoundsConsumeDirtyPages drives finishPipelinedMark directly
// with a hand-dirtied page set: with a one-page budget, the concurrent
// pre-clean round must consume the whole set (so the re-scan inside the
// window finds nothing), and the record must attribute the pages to the
// pre-clean phase.
func TestPrecleanRoundsConsumeDirtyPages(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = MostlyConcurrent
	cfg.RescanBudgetPages = 1
	h, tid := newTestHeap(t, cfg)

	a, err := h.Malloc(tid, 3*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	h.space.ClearSoftDirty()
	for i := uint64(0); i < 3; i++ {
		if err := h.space.Store64(a+i*mem.PageSize, 1); err != nil {
			t.Fatal(err)
		}
	}
	r := recorder{tel: telemetry.NewRegistry(0)}
	h.sweepMu.Lock()
	h.finishPipelinedMark(&r)
	h.sweepMu.Unlock()
	rec := r.rec
	if rec.PrecleanPages != 3 {
		t.Errorf("PrecleanPages = %d, want 3 (one round over the budget consumes the set)", rec.PrecleanPages)
	}
	if rec.DirtyPages != 0 {
		t.Errorf("DirtyPages = %d, want 0 (pre-clean left nothing for the window)", rec.DirtyPages)
	}
	if rec.PrecleanNanos <= 0 {
		t.Error("PrecleanNanos not recorded")
	}
	h.marks.ClearAll()
}

// TestPipelinedPrecleanUnderChurn runs the full pipelined sweep — concurrent
// mark, pre-clean rounds, dirty re-scan — against live mutators, under -race
// via make race-hot / make check. A budget of one page forces pre-clean
// rounds whenever mutators dirtied anything during the concurrent mark (on a
// multi-CPU host; the dirty accounting itself is pinned deterministically by
// the two tests above).
func TestPipelinedPrecleanUnderChurn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = MostlyConcurrent
	cfg.RescanBudgetPages = 1
	cfg.BufferCap = 8
	h, err := New(mem.NewAddressSpace(), cfg, jemalloc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	done := make(chan struct{})
	sweeperDone := make(chan struct{})
	go func() {
		defer close(sweeperDone)
		for {
			select {
			case <-done:
				return
			default:
				h.Sweep()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			churn(t, h, nil, g, 3000)
		}(g)
	}
	wg.Wait()
	close(done)
	<-sweeperDone
	h.Sweep()
	h.Sweep()
	st := h.Stats()
	if st.Quarantined != 0 {
		t.Errorf("Quarantined = %d after final sweeps, want 0", st.Quarantined)
	}
	if st.Allocated != 0 {
		t.Errorf("Allocated = %d at exit, want 0", st.Allocated)
	}
	if st.STWCycles == 0 {
		t.Error("no STW time recorded by pipelined sweeps")
	}
}
