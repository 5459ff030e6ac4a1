package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// goldenSnapshot builds a fully deterministic snapshot exercising the wide
// columns that historically broke alignment: a 9-digit kz-pg figure, a
// 12-digit gauge, and the captured-at header.
func goldenSnapshot() Snapshot {
	h := NewHistogram("malloc_ns", "ns", 1)
	for i := 0; i < 100; i++ {
		h.Record(100) // bucket "<128ns"
	}
	h.Record(5000) // stretches p99.9/max to "<8.192µs"
	return Snapshot{
		CapturedAtNanos: 2_500_000_000,
		SweepSeq:        7,
		SweepsTotal:     7,
		Sweeps: []SweepRecord{{
			Seq: 7, Trigger: TriggerThreshold,
			TotalNanos: 12_345_000, MarkNanos: 8_000_000, PrecleanNanos: 620_000,
			DirtyNanos: 150_000, RecycleNanos: 3_000_000, PurgeNanos: 1_000_000,
			PagesScanned: 16_853, PrecleanPages: 425, DirtyPages: 12, PagesKnownZero: 987_654_321,
			BytesZeroSkipped: 68_074_624,
			EntriesLocked:    12_345_678, Released: 12_000_000, Retained: 345_678,
			Workers: 6,
		}},
		Histograms:   []HistogramSnapshot{h.Snapshot()},
		Gauges:       []GaugeValue{{Name: "shard_occupancy_bp", Value: 123_456_789_012}},
		SamplePeriod: 256,
	}
}

// TestWriteTextGolden pins the exact rendered form of a snapshot. Any change
// to column layout, width computation, number formatting or the header lines
// shows up here as a byte-level diff.
func TestWriteTextGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenSnapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if got != goldenText {
		t.Errorf("WriteText drifted from golden output.\ngot:\n%s\nwant:\n%s", got, goldenText)
	}
}

// TestWriteTextNoTrailingSpace guards the table renderer contract: the last
// column is unpadded, so no rendered line may end in whitespace even when an
// earlier row's final cell is wider.
func TestWriteTextNoTrailingSpace(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenSnapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(buf.String(), "\n") {
		if line != strings.TrimRight(line, " \t") {
			t.Errorf("line %d has trailing whitespace: %q", i+1, line)
		}
	}
}

const goldenText = `captured: +2.5s (sweep seq 7)
sweeps observed: 7 (showing last 1)
sweep  trigger    total     mark  preclean  dirty   recycle  purge  pages  preclean-pg  dirty-pg  kz-pg   zero-skip  locked  released  retained  workers
-----  ---------  --------  ----  --------  ------  -------  -----  -----  -----------  --------  ------  ---------  ------  --------  --------  -------
7      threshold  12.345ms  8ms   620µs     150µs   3ms      1ms    16.9k  425          12        987.7M  64.9 MiB   12.3M   12.0M     345.7k    6

malloc/free latencies sampled 1 in 256 ops

histogram  count  mean   p50     p90     p99     p99.9   max
---------  -----  -----  ------  ------  ------  ------  -----
malloc_ns  101    148ns  <128ns  <128ns  <128ns  <128ns  <8µs

gauge               value
------------------  ------------
shard_occupancy_bp  123456789012
`
