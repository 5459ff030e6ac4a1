package events

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentEmitVsDump is the satellite-4 stress: emitters hammer their
// rings while flight dumps are captured concurrently. Every event a dump
// observes must be untorn (payload consistent with its seq) and every ring's
// events strictly seq-monotonic — the seqlock contract.
func TestConcurrentEmitVsDump(t *testing.T) {
	rec := NewRecorder(256, time.Minute)
	const emitters = 4
	rings := make([]*Ring, emitters)
	for i := range rings {
		rings[i] = rec.Ring("t")
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i, rg := range rings {
		wg.Add(1)
		go func(id uint64, rg *Ring) {
			defer wg.Done()
			for n := uint64(1); !stop.Load(); n++ {
				// Payload encodes (ring id, emission number) so a reader can
				// verify the slot was not torn across a rewrite.
				rg.Emit(KindAlloc, id, n)
			}
		}(uint64(i), rg)
	}

	deadline := time.Now().Add(200 * time.Millisecond)
	captures := 0
	for time.Now().Before(deadline) {
		d := rec.Capture(TripManual)
		captures++
		for ri, tr := range d.Threads {
			var prevSeq uint64
			for _, e := range tr.Events {
				if e.Seq <= prevSeq {
					t.Fatalf("ring %d: seq %d after %d (not monotonic)", ri, e.Seq, prevSeq)
				}
				prevSeq = e.Seq
				if e.Kind != KindAlloc || e.Arg0 != uint64(ri) {
					t.Fatalf("ring %d: torn event %+v", ri, e)
				}
			}
		}
		// A dump taken mid-storm must still serialise and round-trip.
		if captures%16 == 1 {
			var buf bytes.Buffer
			if _, err := d.WriteTo(&buf); err != nil {
				t.Fatalf("WriteTo under load: %v", err)
			}
			if _, err := ReadDump(&buf); err != nil {
				t.Fatalf("ReadDump under load: %v", err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if captures == 0 {
		t.Fatal("no captures ran")
	}
}

// TestConcurrentTrip checks the Trip rate-limit CAS under contention: many
// goroutines tripping at once inside one window produce exactly one dump.
func TestConcurrentTrip(t *testing.T) {
	rec := NewRecorder(16, time.Minute)
	rec.Ring("t").Emit(KindDrain, 1, 1)
	var dumps atomic.Uint64
	rec.SetSink(func(*Dump) { dumps.Add(1) })

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec.Trip(TripGovernorCritical)
		}()
	}
	wg.Wait()
	if got := dumps.Load(); got != 1 {
		t.Fatalf("%d dumps from concurrent trips, want 1", got)
	}
}

// TestForeignWriterDisjointSlots exercises the documented multi-writer
// tolerance: two goroutines emitting on the SAME ring (owner + the sweeper's
// quiesce-time drain emit) must never lose or tear events that survive in
// the ring.
func TestForeignWriterDisjointSlots(t *testing.T) {
	rec := NewRecorder(1024, time.Minute)
	rg := rec.Ring("shared")
	const perWriter = 400
	var wg sync.WaitGroup
	for w := uint64(0); w < 2; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for n := uint64(1); n <= perWriter; n++ {
				rg.Emit(KindDrain, id, n)
			}
		}(w)
	}
	wg.Wait()
	ev := rg.Snapshot(nil, 0)
	if len(ev) != 2*perWriter {
		t.Fatalf("got %d events, want %d", len(ev), 2*perWriter)
	}
	seen := [2]map[uint64]bool{{}, {}}
	for _, e := range ev {
		if e.Arg0 > 1 || e.Arg1 == 0 || e.Arg1 > perWriter || seen[e.Arg0][e.Arg1] {
			t.Fatalf("torn or duplicated event %+v", e)
		}
		seen[e.Arg0][e.Arg1] = true
	}
}
