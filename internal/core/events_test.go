package core

import (
	"testing"
	"time"

	"minesweeper/internal/events"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
	"minesweeper/internal/telemetry"
)

// TestEventsRealSweepNests attaches a flight recorder, runs a real sweep
// over real frees, and checks the emitted stream: the sweeper ring holds a
// correctly nested sweep span (ValidateSpans, the same check the Chrome
// exporter's consumers rely on) with the expected begin/end payloads, and
// the mutator ring saw its drains and sampled ops.
func TestEventsRealSweepNests(t *testing.T) {
	h, tid := newTestHeap(t, testConfig())
	reg := telemetry.NewRegistry(16)
	reg.SetSamplePeriod(1) // sample every op: alloc/free events for all
	h.SetTelemetry(reg)

	rec := events.NewRecorder(256, time.Minute)
	h.SetEvents(rec)

	var addrs []uint64
	for i := 0; i < 40; i++ {
		a, err := h.Malloc(tid, 128)
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
	h.Sweep()

	d := rec.Capture(events.TripManual)
	if err := events.ValidateSpans(d); err != nil {
		t.Fatalf("real sweep emitted malformed spans: %v", err)
	}

	counts := map[events.Kind]int{}
	var sweepBegin, sweepEnd events.Event
	for _, tr := range d.Threads {
		for _, e := range tr.Events {
			counts[e.Kind]++
			switch e.Kind {
			case events.KindSweepBegin:
				sweepBegin = e
			case events.KindSweepEnd:
				sweepEnd = e
			}
		}
	}
	if counts[events.KindSweepBegin] != 1 || counts[events.KindSweepEnd] != 1 {
		t.Fatalf("sweep span count = %d/%d, want 1/1", counts[events.KindSweepBegin], counts[events.KindSweepEnd])
	}
	if sweepBegin.Arg1 != 40 {
		t.Errorf("SweepBegin entries locked = %d, want 40", sweepBegin.Arg1)
	}
	if sweepEnd.Arg0 != 40 || sweepEnd.Arg1 != 0 {
		t.Errorf("SweepEnd released/retained = %d/%d, want 40/0", sweepEnd.Arg0, sweepEnd.Arg1)
	}
	if counts[events.KindMarkBegin] != 1 || counts[events.KindMarkEnd] != 1 {
		t.Errorf("mark span count = %d/%d, want 1/1", counts[events.KindMarkBegin], counts[events.KindMarkEnd])
	}
	if counts[events.KindRecycleBegin] != 1 || counts[events.KindPurgeBegin] != 1 {
		t.Errorf("recycle/purge begins = %d/%d, want 1/1", counts[events.KindRecycleBegin], counts[events.KindPurgeBegin])
	}
	if counts[events.KindAlloc] != 40 || counts[events.KindFree] != 40 {
		t.Errorf("sampled alloc/free = %d/%d, want 40/40 at period 1", counts[events.KindAlloc], counts[events.KindFree])
	}
	if counts[events.KindDrain] == 0 {
		t.Error("no drain events (BufferCap=1 drains on every free)")
	}

	// Detach: hot paths must stop emitting.
	h.SetEvents(nil)
	a, _ := h.Malloc(tid, 64)
	_ = h.Free(tid, a)
	h.Sweep()
	d2 := rec.Capture(events.TripManual)
	if d2.Len() != d.Len() {
		t.Errorf("events emitted after detach: %d -> %d", d.Len(), d2.Len())
	}
}

// dirtyOnStopWorld is a StopTheWorld stub whose Stop() dirties several pages
// — the writes land at the head of every stop-the-world window, so with a
// one-page budget every stop freezes an over-budget dirty set and the pause
// aborts until the retries run out.
type dirtyOnStopWorld struct {
	space *mem.AddressSpace
	addr  uint64
	pages uint64
}

func (w *dirtyOnStopWorld) Stop() {
	if w.addr == 0 {
		return
	}
	for i := uint64(0); i < w.pages; i++ {
		if err := w.space.Store64(w.addr+i*mem.PageSize, i+1); err != nil {
			panic(err)
		}
	}
}

func (w *dirtyOnStopWorld) Start() {}

// TestEventsStwSpansAndOverBudgetTrip drives the pipelined mark with a tiny
// re-scan budget against a world that re-dirties pages inside every stop, so
// both retries abort and the final STW window proceeds over budget — and
// checks the stw/abort events and the TripStwOverBudget flight dump.
func TestEventsStwSpansAndOverBudgetTrip(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = MostlyConcurrent
	cfg.RescanBudgetPages = 1
	w := &dirtyOnStopWorld{pages: 4}
	cfg.World = w
	h, tid := newTestHeap(t, cfg)
	w.space = h.space

	rec := events.NewRecorder(256, time.Minute)
	h.SetEvents(rec)
	var dumps []*events.Dump
	rec.SetSink(func(d *events.Dump) { dumps = append(dumps, d) })

	region, err := h.Malloc(tid, 4*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	w.addr = region
	a, _ := h.Malloc(tid, 48)
	if err := h.Free(tid, a); err != nil {
		t.Fatal(err)
	}
	h.Sweep()

	d := rec.Capture(events.TripManual)
	if err := events.ValidateSpans(d); err != nil {
		t.Fatalf("pipelined sweep emitted malformed spans: %v", err)
	}
	counts := map[events.Kind]int{}
	for _, tr := range d.Threads {
		for _, e := range tr.Events {
			counts[e.Kind]++
		}
	}
	if counts[events.KindStwBegin] == 0 || counts[events.KindStwBegin] != counts[events.KindStwEnd] {
		t.Fatalf("stw begin/end = %d/%d", counts[events.KindStwBegin], counts[events.KindStwEnd])
	}
	if counts[events.KindStwAbort] != maxStopRetries {
		t.Errorf("stw aborts = %d, want %d (budget 1 forces every retry)", counts[events.KindStwAbort], maxStopRetries)
	}
	if counts[events.KindPrecleanBegin] != maxStopRetries {
		t.Errorf("abort-recovery preclean rounds = %d, want %d", counts[events.KindPrecleanBegin], maxStopRetries)
	}
	if len(dumps) != 1 || dumps[0].Cause != events.TripStwOverBudget {
		t.Fatalf("dumps = %+v, want one stw-over-budget dump", dumps)
	}
	if counts[events.KindTrip] != 1 {
		t.Errorf("trip events = %d, want 1", counts[events.KindTrip])
	}
}

// TestRecordMatchesSpans checks that telemetry and the flight recorder
// share the sweep path's clock readings: for every sweep, each phase
// duration in the SweepRecord equals the End-Begin of its MSEV span(s) —
// recycle, purge, pre-clean summed over its rounds, and the stop-the-world
// windows summed into DirtyNanos. The mostly-concurrent heap re-dirties pages
// inside every stop under a one-page budget, so its sweeps run pre-clean
// rounds and aborted windows too.
func TestRecordMatchesSpans(t *testing.T) {
	for _, mode := range []Mode{FullyConcurrent, MostlyConcurrent} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig()
			cfg.Mode = mode
			cfg.RescanBudgetPages = 1
			w := &dirtyOnStopWorld{pages: 4}
			cfg.World = w
			h, tid := newTestHeap(t, cfg)
			reg := telemetry.NewRegistry(16)
			h.SetTelemetry(reg)
			w.space = h.space
			rec := events.NewRecorder(1024, time.Minute)
			h.SetEvents(rec)

			region, err := h.Malloc(tid, 4*mem.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			w.addr = region
			const sweeps = 3
			for i := 0; i < sweeps; i++ {
				a, err := h.Malloc(tid, 48)
				if err != nil {
					t.Fatal(err)
				}
				if err := h.Free(tid, a); err != nil {
					t.Fatal(err)
				}
				h.Sweep()
			}

			recs := reg.Ring().Snapshot()
			if len(recs) != sweeps {
				t.Fatalf("sweep records = %d, want %d", len(recs), sweeps)
			}
			var ev []events.Event
			for _, tr := range rec.Capture(events.TripManual).Threads {
				if tr.Name == "sweeper" {
					ev = tr.Events
				}
			}
			// got[i] sums End-Begin per span (keyed by its Begin kind) over
			// sweep i. Spans of one kind never nest, so the latest Begin of
			// that kind opened the span an End closes.
			ends := map[events.Kind]events.Kind{
				events.KindSweepEnd:    events.KindSweepBegin,
				events.KindMarkEnd:     events.KindMarkBegin,
				events.KindPrecleanEnd: events.KindPrecleanBegin,
				events.KindStwEnd:      events.KindStwBegin,
				events.KindRecycleEnd:  events.KindRecycleBegin,
				events.KindPurgeEnd:    events.KindPurgeBegin,
			}
			var got []map[events.Kind]int64
			begun := map[events.Kind]uint64{}
			for _, e := range ev {
				if e.Kind == events.KindSweepBegin {
					got = append(got, map[events.Kind]int64{})
				}
				if b, ok := ends[e.Kind]; ok {
					got[len(got)-1][b] += int64(e.Nanos - begun[b])
				} else {
					begun[e.Kind] = e.Nanos
				}
			}
			if len(got) != sweeps {
				t.Fatalf("sweep spans = %d, want %d", len(got), sweeps)
			}
			for i, r := range recs {
				s := got[i]
				for _, c := range []struct {
					name   string
					record int64
					span   events.Kind
				}{
					{"TotalNanos", r.TotalNanos, events.KindSweepBegin},
					{"RecycleNanos", r.RecycleNanos, events.KindRecycleBegin},
					{"PurgeNanos", r.PurgeNanos, events.KindPurgeBegin},
					{"PrecleanNanos", r.PrecleanNanos, events.KindPrecleanBegin},
					{"DirtyNanos", r.DirtyNanos, events.KindStwBegin},
				} {
					if c.record != s[c.span] {
						t.Errorf("sweep %d: %s = %d, spans sum to %d", i, c.name, c.record, s[c.span])
					}
				}
				if mode == MostlyConcurrent && (r.PrecleanNanos == 0 || r.DirtyNanos == 0) {
					t.Errorf("sweep %d: pre-clean %d ns, stw %d ns; the budget should force both", i, r.PrecleanNanos, r.DirtyNanos)
				}
			}
		})
	}
}

// TestHistogramsProjectEvents checks that telemetry's latency histograms are
// a projection of the event stream: with both sinks attached and every op
// sampled, each timed event kind occurs on the rings exactly as often as the
// histogram it maps to counts. That includes the drains at quiesce points —
// FlushThread, the §5.7 pause, the stop-the-world window — which enter
// quarantine_drain_ns like the owner's amortised drains do.
func TestHistogramsProjectEvents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = MostlyConcurrent
	cfg.World = &dirtyOnStopWorld{} // the sweeper drains every ring inside the stop
	cfg.PauseThreshold = 0.5
	cfg.SweepThreshold = 1e18 // only the pause brake requests sweeps
	cfg.UnmappedFactor = 0
	h, err := New(mem.NewAddressSpace(), cfg, jemalloc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	reg := telemetry.NewRegistry(64)
	reg.SetSamplePeriod(1)
	h.SetTelemetry(reg)
	rec := events.NewRecorder(1<<14, time.Minute)
	h.SetEvents(rec)
	id := h.RegisterThread()

	// Each pause waits for the sweep it requested, so no sweep runs while
	// this goroutine mutates its ring.
	keep, _ := h.Malloc(id, 4096)
	for i := 0; i < 3000; i++ {
		a, err := h.Malloc(id, 2048)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Free(id, a); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 10 {
			h.FlushThread(id) // a ring holding at least ten frees
		}
	}
	_ = h.Free(id, keep)
	h.Sweep()
	if h.Stats().PauseNanos == 0 {
		t.Fatal("no §5.7 pause engaged")
	}

	counts := map[events.Kind]uint64{}
	for _, tr := range rec.Capture(events.TripManual).Threads {
		if len(tr.Events) > 0 && tr.Events[0].Seq != 1 {
			t.Fatalf("ring %s wrapped; the counts below would be short", tr.Name)
		}
		for _, e := range tr.Events {
			counts[e.Kind]++
		}
	}
	hists := map[string]uint64{}
	for _, hs := range reg.Snapshot().Histograms {
		hists[hs.Name] = hs.Count
	}
	for _, c := range []struct {
		kind events.Kind
		hist string
	}{
		{events.KindAlloc, telemetry.HistMalloc},
		{events.KindFree, telemetry.HistFree},
		{events.KindDrain, "quarantine_drain_ns"},
		{events.KindPauseEnd, telemetry.HistPause},
		{events.KindStwEnd, telemetry.HistStw},
	} {
		if counts[c.kind] == 0 {
			t.Errorf("no %s events", c.kind)
		}
		if counts[c.kind] != hists[c.hist] {
			t.Errorf("%d %s events, %s counts %d", counts[c.kind], c.kind, c.hist, hists[c.hist])
		}
	}
}
