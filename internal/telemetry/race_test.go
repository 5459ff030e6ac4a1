package telemetry

import (
	"sync"
	"testing"
)

// The concurrency stress tests mirror core_concurrent_test.go's structure:
// many writer goroutines hammer the structure while readers snapshot, run
// under -race via make check / make race-hot.

func TestConcurrentHistogram(t *testing.T) {
	h := NewHistogram("lat", "ns", DefaultHistShards)
	const writers, per = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // concurrent reader: snapshots must never tear or race
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Snapshot()
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.RecordShard(w, uint64(i%4096))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	s := h.Snapshot()
	if s.Count != writers*per {
		t.Fatalf("Count = %d, want %d", s.Count, writers*per)
	}
}

func TestConcurrentRegistrySnapshot(t *testing.T) {
	reg := NewRegistry(32)
	reg.RegisterGauge("g", func() uint64 { return 1 })
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				reg.Malloc.RecordShard(w, uint64(i))
				reg.Free.RecordShard(w, uint64(i))
				if i%100 == 0 {
					reg.ObserveSweep(SweepRecord{Trigger: TriggerThreshold, TotalNanos: int64(i)})
				}
			}
		}(w)
	}
	var snaps int
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = reg.Snapshot()
				snaps++
			}
		}
	}()
	wg.Wait()
	close(stop)
	s := reg.Snapshot()
	if s.SweepsTotal != 4*30 {
		t.Fatalf("SweepsTotal = %d, want 120", s.SweepsTotal)
	}
	for _, h := range s.Histograms {
		if (h.Name == HistMalloc || h.Name == HistFree) && h.Count != 4*3000 {
			t.Fatalf("%s Count = %d, want 12000", h.Name, h.Count)
		}
	}
}
