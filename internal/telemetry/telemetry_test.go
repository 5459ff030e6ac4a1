package telemetry

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"reflect"
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("lat", "ns", 1)
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{^uint64(0), 64},
	}
	for _, c := range cases {
		h.Record(c.v)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(cases)) {
		t.Fatalf("Count = %d, want %d", s.Count, len(cases))
	}
	for _, c := range cases {
		if got := bits.Len64(c.v); got != c.bucket {
			t.Errorf("bucket(%d) = %d, want %d", c.v, got, c.bucket)
		}
		if s.Buckets[c.bucket] == 0 {
			t.Errorf("bucket %d empty after recording %d", c.bucket, c.v)
		}
	}
	// Bucket invariant: v in [BucketUpper(b-1), BucketUpper(b)) for b >= 2.
	for _, c := range cases {
		if c.bucket >= 2 && c.bucket < 64 {
			if c.v < BucketUpper(c.bucket-1) || c.v >= BucketUpper(c.bucket) {
				t.Errorf("value %d outside bucket %d bounds [%d, %d)",
					c.v, c.bucket, BucketUpper(c.bucket-1), BucketUpper(c.bucket))
			}
		}
	}
}

func TestHistogramShardMerge(t *testing.T) {
	h := NewHistogram("lat", "ns", 4)
	const per = 1000
	for shard := 0; shard < 4; shard++ {
		for i := 0; i < per; i++ {
			h.RecordShard(shard, uint64(100+shard))
		}
	}
	s := h.Snapshot()
	if s.Count != 4*per {
		t.Fatalf("merged Count = %d, want %d", s.Count, 4*per)
	}
	wantSum := uint64(per * (100 + 101 + 102 + 103))
	if s.Sum != wantSum {
		t.Fatalf("merged Sum = %d, want %d", s.Sum, wantSum)
	}
	// All values land in bucket 7 ([64, 128)).
	if s.Buckets[7] != 4*per {
		t.Fatalf("bucket 7 = %d, want %d", s.Buckets[7], 4*per)
	}
	// Negative hints must not panic (ThreadIDs are int32 and could in
	// principle be mis-cast).
	h.RecordShard(-3, 5)
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram("lat", "ns", 1)
	for i := 0; i < 99; i++ {
		h.Record(10) // bucket 4, upper bound 16
	}
	h.Record(1 << 20) // one outlier
	s := h.Snapshot()
	if q := s.Quantile(0.5); q != 16 {
		t.Errorf("p50 = %d, want 16", q)
	}
	if q := s.Quantile(1.0); q != 1<<21 {
		t.Errorf("p100 = %d, want %d", q, 1<<21)
	}
	if m := s.Max(); m != 1<<21 {
		t.Errorf("Max = %d, want %d", m, 1<<21)
	}
	if s.Quantile(0.5) > s.Quantile(0.99) {
		t.Error("quantiles not monotone")
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.99) != 0 || empty.Max() != 0 || empty.Mean() != 0 {
		t.Error("empty snapshot quantile/max/mean not zero")
	}
}

func TestTriggerReasonJSON(t *testing.T) {
	for _, r := range []TriggerReason{TriggerForced, TriggerThreshold, TriggerUnmapped, TriggerPause} {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var got TriggerReason
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if got != r {
			t.Errorf("round-trip %v -> %s -> %v", r, b, got)
		}
	}
	var got TriggerReason
	if err := json.Unmarshal([]byte(`"nonsense"`), &got); err == nil {
		t.Error("unknown reason name did not error")
	}
	if err := json.Unmarshal([]byte(`2`), &got); err != nil || got != TriggerUnmapped {
		t.Errorf("numeric reason = %v, %v; want TriggerUnmapped, nil", got, err)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry(8)
	reg.Malloc.RecordShard(3, 123)
	reg.Free.Record(456)
	reg.Pause.Record(1 << 22)
	reg.RegisterGauge("quarantine_bytes", func() uint64 { return 7777 })
	reg.RegisterGauge("arena_shards", func() uint64 { return 4 })
	reg.ObserveSweep(SweepRecord{
		Trigger: TriggerThreshold, MarkNanos: 1000, RecycleNanos: 2000,
		PurgeNanos: 300, TotalNanos: 3300, PagesScanned: 12,
		BytesScanned: 12 << 12, BytesZeroSkipped: 8 << 12,
		EntriesLocked: 100, Released: 90, Retained: 10, Workers: 2,
	})
	reg.ObserveSweep(SweepRecord{Trigger: TriggerPause, TotalNanos: 50})

	snap := reg.Snapshot()
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatalf("JSON round-trip mismatch:\nwant %+v\ngot  %+v", snap, got)
	}
	if got.SweepsTotal != 2 || len(got.Sweeps) != 2 {
		t.Fatalf("SweepsTotal/len = %d/%d, want 2/2", got.SweepsTotal, len(got.Sweeps))
	}
	if got.Sweeps[0].Trigger != TriggerThreshold || got.Sweeps[1].Trigger != TriggerPause {
		t.Error("trigger reasons lost in round-trip")
	}
	// Gauges are sorted by name for stable output.
	if got.Gauges[0].Name != "arena_shards" || got.Gauges[1].Name != "quarantine_bytes" {
		t.Errorf("gauges unsorted: %+v", got.Gauges)
	}
}

// TestReadSnapshotRetiredSweepField: a snapshot saved while sweep records
// still carried the retired per-sweep shard count decodes, keeps every other
// field, and renders.
func TestReadSnapshotRetiredSweepField(t *testing.T) {
	const legacy = `{
  "sweeps_total": 1,
  "sweeps": [
    {"seq": 1, "trigger": "threshold", "total_ns": 5000, "entries_locked": 3,
     "released": 2, "retained": 1, "workers": 2, "shards_swept": 1}
  ]
}`
	s, err := ReadSnapshot(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	want := SweepRecord{Seq: 1, Trigger: TriggerThreshold, TotalNanos: 5000,
		EntriesLocked: 3, Released: 2, Retained: 1, Workers: 2}
	if len(s.Sweeps) != 1 || s.Sweeps[0] != want {
		t.Fatalf("decoded sweeps = %+v, want [%+v]", s.Sweeps, want)
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "threshold") {
		t.Errorf("rendered snapshot lacks the sweep row:\n%s", buf.String())
	}
}

func TestSnapshotWriteText(t *testing.T) {
	reg := NewRegistry(8)
	reg.Malloc.Record(100)
	reg.RegisterGauge("quarantine_entries", func() uint64 { return 42 })
	reg.ObserveSweep(SweepRecord{Trigger: TriggerUnmapped, TotalNanos: 5000, MarkNanos: 4000, Workers: 3})
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"unmapped", "malloc_ns", "quarantine_entries", "42", "trigger", "workers"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestSamplePeriod(t *testing.T) {
	reg := NewRegistry(4)
	if got := reg.SamplePeriod(); got != DefaultSamplePeriod {
		t.Fatalf("default SamplePeriod = %d, want %d", got, DefaultSamplePeriod)
	}
	reg.SetSamplePeriod(8)
	if got := reg.SamplePeriod(); got != 8 {
		t.Errorf("SamplePeriod = %d after SetSamplePeriod(8)", got)
	}
	// 0 clamps to 1 (sample everything), and the period rides the snapshot
	// so consumers can scale histogram counts back to op totals.
	reg.SetSamplePeriod(0)
	if got := reg.SamplePeriod(); got != 1 {
		t.Errorf("SamplePeriod = %d after SetSamplePeriod(0), want 1", got)
	}
	if got := reg.Snapshot().SamplePeriod; got != 1 {
		t.Errorf("snapshot SamplePeriod = %d, want 1", got)
	}
}

func TestRegisterGaugeReplaces(t *testing.T) {
	reg := NewRegistry(4)
	reg.RegisterGauge("g", func() uint64 { return 1 })
	reg.RegisterGauge("g", func() uint64 { return 2 })
	s := reg.Snapshot()
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 2 {
		t.Fatalf("gauges = %+v, want one g=2", s.Gauges)
	}
}

func TestRegisterHistogramAppearsInSnapshot(t *testing.T) {
	reg := NewRegistry(4)
	h := NewHistogram("custom_ns", "ns", 2)
	h.Record(9)
	reg.RegisterHistogram(h)
	s := reg.Snapshot()
	found := false
	for _, hs := range s.Histograms {
		if hs.Name == "custom_ns" && hs.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("custom histogram missing from snapshot: %+v", s.Histograms)
	}
}
