package telemetry

import (
	"bytes"
	"io"
	"math"
	"testing"

	"minesweeper/internal/control"
)

// FuzzReadSnapshot exercises the snapshot reader — msstat loads snapshots
// from files — with arbitrary bytes. ReadSnapshot, WriteText and Quantile
// must never panic on whatever it accepts, and every histogram's quantiles
// must not decrease as q grows.
func FuzzReadSnapshot(f *testing.F) {
	// Seed corpus: a real registry snapshot with sweeps, histograms, gauges
	// and a governor that has made a decision, plus near-misses.
	reg := NewRegistry(8)
	reg.Malloc.Record(100)
	reg.Free.Record(450)
	reg.Pause.Record(1 << 22)
	reg.RegisterGauge("quarantine_bytes", func() uint64 { return 7777 })
	reg.ObserveSweep(SweepRecord{
		Trigger: TriggerThreshold, TotalNanos: 3300, MarkNanos: 1000,
		PagesScanned: 12, BytesScanned: 12 << 12, EntriesLocked: 100,
		Released: 90, Retained: 10, Workers: 2,
	})
	plane := control.NewPlane(control.Config{
		Base:   control.Knobs{SweepThreshold: 0.15, UnmappedFactor: 9, Helpers: 2},
		Budget: 1 << 20,
		Policy: control.NewAIMD(),
	})
	plane.Observe(control.Inputs{RSS: 4 << 20, QuarantinedBytes: 1 << 20})
	reg.AttachGovernor(plane)
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"histograms":[{"count":18446744073709551615,"buckets":[0]}]}`))
	f.Add([]byte(`{"sweeps":[{"trigger":"nonsense"}]}`))
	f.Add([]byte(`{"governor":{"decisions":[{}]}}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := s.WriteText(io.Discard); err != nil {
			t.Fatalf("WriteText on an accepted snapshot: %v", err)
		}
		for _, h := range s.Histograms {
			_ = h.Quantile(math.NaN())
			prev := h.Quantile(-1)
			for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1, 2} {
				v := h.Quantile(q)
				if v < prev {
					t.Fatalf("histogram %q: Quantile(%g) = %d below a lower quantile's %d", h.Name, q, v, prev)
				}
				prev = v
			}
		}
	})
}
