package events

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestRingEmitSnapshot(t *testing.T) {
	rec := NewRecorder(16, time.Second)
	rg := rec.Ring("t")
	for i := uint64(1); i <= 5; i++ {
		rg.EmitAt(i*100, KindDrain, i, i*2)
	}
	ev := rg.Snapshot(nil, 0)
	if len(ev) != 5 {
		t.Fatalf("got %d events, want 5", len(ev))
	}
	for i, e := range ev {
		want := uint64(i + 1)
		if e.Seq != want || e.Nanos != want*100 || e.Kind != KindDrain || e.Arg0 != want || e.Arg1 != want*2 {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	rec := NewRecorder(8, time.Second)
	rg := rec.Ring("t")
	const total = 30
	for i := uint64(1); i <= total; i++ {
		rg.EmitAt(i, KindAlloc, i, 0)
	}
	ev := rg.Snapshot(nil, 0)
	if len(ev) != 8 {
		t.Fatalf("got %d events, want 8 (ring cap)", len(ev))
	}
	for i, e := range ev {
		want := uint64(total - 8 + 1 + i)
		if e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}
}

func TestSnapshotSinceFilters(t *testing.T) {
	rec := NewRecorder(16, time.Second)
	rg := rec.Ring("t")
	for i := uint64(1); i <= 10; i++ {
		rg.EmitAt(i*10, KindFree, i, 0)
	}
	ev := rg.Snapshot(nil, 55)
	if len(ev) != 5 {
		t.Fatalf("got %d events since 55, want 5", len(ev))
	}
	if ev[0].Nanos != 60 {
		t.Fatalf("first event at %d, want 60", ev[0].Nanos)
	}
}

func TestRingCapRoundsToPowerOfTwo(t *testing.T) {
	rec := NewRecorder(100, 0)
	if rec.ringCap != 128 {
		t.Fatalf("ringCap = %d, want 128", rec.ringCap)
	}
	if rec.Window() != DefaultWindow {
		t.Fatalf("window = %v, want %v", rec.Window(), DefaultWindow)
	}
}

func TestTripRateLimitAndSink(t *testing.T) {
	rec := NewRecorder(16, time.Second)
	rg := rec.Ring("t")
	rg.Emit(KindDrain, 1, 2)

	var dumps []*Dump
	rec.SetSink(func(d *Dump) { dumps = append(dumps, d) })

	if !rec.Trip(TripStwOverBudget) {
		t.Fatal("first trip rejected")
	}
	if rec.Trip(TripGovernorCritical) {
		t.Fatal("second trip inside window accepted")
	}
	if len(dumps) != 1 || rec.Trips() != 1 {
		t.Fatalf("dumps=%d trips=%d, want 1/1", len(dumps), rec.Trips())
	}
	if dumps[0].Cause != TripStwOverBudget {
		t.Fatalf("cause = %v", dumps[0].Cause)
	}
	if dumps[0].Len() != 1 {
		t.Fatalf("dump has %d events, want 1", dumps[0].Len())
	}

	rec.SetSink(nil)
	if rec.Trip(TripManual) {
		t.Fatal("trip with no sink accepted")
	}
}

func TestDumpRoundTrip(t *testing.T) {
	rec := NewRecorder(64, time.Minute)
	sw := rec.Ring("sweeper")
	th := rec.Ring("thread-0")
	sw.EmitAt(1000, KindSweepBegin, 2, 77)
	sw.EmitAt(1500, KindMarkBegin, 0, 0)
	sw.EmitAt(2500, KindMarkEnd, 12, 1<<20)
	sw.EmitAt(3000, KindSweepEnd, 70, 7)
	th.EmitAt(1200, KindDrain, 32, 4096)
	th.EmitAt(2800, KindAlloc, 64, 900)

	d := rec.Capture(TripManual)
	var buf bytes.Buffer
	n, err := d.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	got, err := ReadDump(&buf)
	if err != nil {
		t.Fatalf("ReadDump: %v", err)
	}
	if got.Cause != d.Cause || got.TakenNanos != d.TakenNanos || got.SinceNanos != d.SinceNanos {
		t.Fatalf("header mismatch: %+v vs %+v", got, d)
	}
	if got.Epoch.UnixNano() != d.Epoch.UnixNano() {
		t.Fatalf("epoch mismatch")
	}
	if len(got.Kinds) != int(kindCount) {
		t.Fatalf("kind table has %d entries, want %d", len(got.Kinds), kindCount)
	}
	if len(got.Threads) != 2 {
		t.Fatalf("got %d rings, want 2", len(got.Threads))
	}
	for i, tr := range got.Threads {
		want := d.Threads[i]
		if tr.Name != want.Name || len(tr.Events) != len(want.Events) {
			t.Fatalf("ring %d: %q/%d events, want %q/%d", i, tr.Name, len(tr.Events), want.Name, len(want.Events))
		}
		for j, e := range tr.Events {
			if e != want.Events[j] {
				t.Fatalf("ring %q event %d = %+v, want %+v", tr.Name, j, e, want.Events[j])
			}
		}
	}
}

func TestDumpRejectsGarbage(t *testing.T) {
	if _, err := ReadDump(strings.NewReader("not a dump at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadDump(strings.NewReader("MSEV")); err == nil {
		t.Fatal("truncated dump accepted")
	}
}

func TestTimelineRendersSpansAndDurations(t *testing.T) {
	rec := NewRecorder(64, time.Minute)
	sw := rec.Ring("sweeper")
	sw.EmitAt(1_000_000, KindSweepBegin, 2, 10)
	sw.EmitAt(1_200_000, KindMarkBegin, 0, 0)
	sw.EmitAt(1_900_000, KindMarkEnd, 4, 1<<16)
	sw.EmitAt(2_000_000, KindSweepEnd, 9, 1)

	var buf bytes.Buffer
	if err := WriteTimeline(&buf, rec.Capture(TripManual)); err != nil {
		t.Fatalf("WriteTimeline: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"cause=manual", "sweep", "  mark", "700µs", "1ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestServerStateAndEndpoints(t *testing.T) {
	rec := NewRecorder(64, time.Minute)
	sw := rec.Ring("sweeper")
	th := rec.Ring("thread-0")
	base := rec.Now()
	sw.EmitAt(base+1, KindSweepBegin, 2, 10)
	sw.EmitAt(base+2, KindStwBegin, 3, 0)
	sw.EmitAt(base+150, KindStwEnd, 3, 0)
	sw.EmitAt(base+200, KindMarkBegin, 0, 0) // left open: in-flight phase
	th.EmitAt(base+50, KindPauseBegin, 1, 0)
	th.EmitAt(base+90, KindPauseEnd, 40, 0)

	srv := NewServer(rec, nil)
	st := srv.StateSince(0)
	if st.Phase != "mark" {
		t.Fatalf("phase = %q, want mark", st.Phase)
	}
	if len(st.RecentPauses) != 2 {
		t.Fatalf("got %d pauses, want 2: %+v", len(st.RecentPauses), st.RecentPauses)
	}
	if st.RecentPauses[0].Kind != "stw" || st.RecentPauses[0].Nanos != 148 {
		t.Fatalf("pause[0] = %+v", st.RecentPauses[0])
	}
	if st.RecentPauses[1].Kind != "pause" || st.RecentPauses[1].Nanos != 40 {
		t.Fatalf("pause[1] = %+v", st.RecentPauses[1])
	}
	if len(st.Batches) != 2 {
		t.Fatalf("got %d batches, want 2", len(st.Batches))
	}

	// Incremental: a cutoff past every event returns no batches but keeps
	// the summary.
	st2 := srv.StateSince(st.NowNanos)
	if len(st2.Batches) != 0 {
		t.Fatalf("incremental state has %d batches, want 0", len(st2.Batches))
	}
	if st2.Phase != "mark" {
		t.Fatalf("incremental phase = %q, want mark", st2.Phase)
	}

	// HTTP endpoints.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := mustGet(t, ts.URL+"/events/state?after=0")
	var st3 State
	if err := json.Unmarshal(resp, &st3); err != nil {
		t.Fatalf("state JSON: %v", err)
	}
	if st3.Phase != "mark" {
		t.Fatalf("HTTP phase = %q", st3.Phase)
	}

	raw := mustGet(t, ts.URL+"/events/dump")
	if d, err := ReadDump(bytes.NewReader(raw)); err != nil {
		t.Fatalf("served dump unreadable: %v", err)
	} else if d.Len() != 6 {
		t.Fatalf("served dump has %d events, want 6", d.Len())
	}

	trace := mustGet(t, ts.URL+"/events/trace.json")
	var arr []map[string]any
	if err := json.Unmarshal(trace, &arr); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
}

func mustGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

// TestKindValuesAndNamesPinned pins every Kind's on-disk value and name
// (DESIGN.md §16): MSEV dumps store the raw value, so renumbering a kind
// would relabel every event in an older dump. Retired kinds keep their slot
// and name. A new kind must be appended here at the end.
func TestKindValuesAndNamesPinned(t *testing.T) {
	want := []struct {
		kind  Kind
		value uint8
		name  string
	}{
		{KindInvalid, 0, "invalid"},
		{KindSweepBegin, 1, "sweep"},
		{KindSweepEnd, 2, "sweep.end"},
		{KindMarkBegin, 3, "mark"},
		{KindMarkEnd, 4, "mark.end"},
		{KindPrecleanBegin, 5, "preclean"},
		{KindPrecleanEnd, 6, "preclean.end"},
		{KindStwBegin, 7, "stw"},
		{KindStwAbort, 8, "stw.abort"},
		{KindStwEnd, 9, "stw.end"},
		{KindRecycleBegin, 10, "recycle"},
		{KindRecycleEnd, 11, "recycle.end"},
		{KindPurgeBegin, 12, "purge"},
		{KindPurgeEnd, 13, "purge.end"},
		{KindPauseBegin, 14, "pause"},
		{KindPauseEnd, 15, "pause.end"},
		{KindDrain, 16, "drain"},
		{KindZeroScrub, 17, "zero-scrub"},
		{KindAlloc, 18, "alloc"},
		{KindFree, 19, "free"},
		{KindGovDecision, 20, "governor"},
		{KindTrip, 21, "trip"},
	}
	if len(want) != int(kindCount) {
		t.Fatalf("table pins %d kinds, kindCount is %d", len(want), kindCount)
	}
	for _, w := range want {
		if uint8(w.kind) != w.value || w.kind.String() != w.name {
			t.Errorf("kind %d %q, want %d %q", uint8(w.kind), w.kind, w.value, w.name)
		}
	}
}

// TestRetiredKindStillDecodes checks that dumps holding retired kinds read
// back with their names in the dump's own kind table and render under those
// names in both exporters: an older build's KindZeroScrub, written here, and
// the retired host simulation's four instants and trip cause, in a dump that
// build wrote (testdata/host-kinds.msev: one "host-arbiter" ring, cause 4,
// "host-over-budget"). This build does not name kinds 22-25, so only the
// dump's table can label them.
func TestRetiredKindStillDecodes(t *testing.T) {
	rec := NewRecorder(16, time.Minute)
	rec.Ring("thread-0").EmitAt(100, KindZeroScrub, 3, 4096)
	var zeroScrub bytes.Buffer
	if _, err := rec.Capture(TripManual).WriteTo(&zeroScrub); err != nil {
		t.Fatal(err)
	}
	host, err := os.ReadFile("testdata/host-kinds.msev")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		dump      []byte
		cause     TripCause
		causeName string
		events    int
		kinds     map[Kind]string // retired value -> name in the dump's table
	}{
		{"zero-scrub", zeroScrub.Bytes(), TripManual, "manual", 1, map[Kind]string{KindZeroScrub: "zero-scrub"}},
		{"host-kinds", host, TripCause(4), "host-over-budget", 4, map[Kind]string{
			22: "tenant-throttle", 23: "rebalance", 24: "starve-avert", 25: "host-level",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := ReadDump(bytes.NewReader(tc.dump))
			if err != nil {
				t.Fatalf("ReadDump (DumpVersion %d): %v", DumpVersion, err)
			}
			if d.Cause != tc.cause || d.Len() != tc.events {
				t.Fatalf("cause %d with %d events, want %d with %d", d.Cause, d.Len(), tc.cause, tc.events)
			}
			for k, name := range tc.kinds {
				if !slices.Contains(d.Kinds, KindName{Kind: k, Name: name}) {
					t.Errorf("kind table %v does not label value %d %q", d.Kinds, k, name)
				}
			}
			var tl, ct bytes.Buffer
			if err := WriteTimeline(&tl, d); err != nil {
				t.Fatal(err)
			}
			if err := WriteChromeTrace(&ct, d); err != nil {
				t.Fatal(err)
			}
			for _, name := range tc.kinds {
				if !strings.Contains(tl.String(), name) {
					t.Errorf("timeline does not show %s:\n%s", name, tl.String())
				}
				if !strings.Contains(ct.String(), `"`+name+`"`) {
					t.Errorf("chrome trace does not show %s:\n%s", name, ct.String())
				}
			}
			if want := "cause=" + tc.causeName; !strings.Contains(tl.String(), want) {
				t.Errorf("timeline does not show %s:\n%s", want, tl.String())
			}
			if want := "(" + tc.causeName + ")"; !strings.Contains(ct.String(), want) {
				t.Errorf("chrome trace does not show cause %s:\n%s", tc.causeName, ct.String())
			}
		})
	}
}
