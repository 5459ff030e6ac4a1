package core

import (
	"sync"
	"testing"

	"minesweeper/internal/alloc"
)

// TestRingDrainOnUnregister: frees buffered in a thread's private ring are
// invisible to global accounting until a drain; UnregisterThread is a drain
// point, so a thread may exit with a part-full ring and lose nothing.
func TestRingDrainOnUnregister(t *testing.T) {
	cfg := testConfig()
	cfg.BufferCap = 64 // watermark 48: ten frees stay ring-resident
	h, tid := newTestHeap(t, cfg)
	var bases []uint64
	var want uint64
	for i := 0; i < 10; i++ {
		a, err := h.Malloc(tid, 256)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, a)
		want += h.UsableSize(a)
	}
	for _, a := range bases {
		if err := h.Free(tid, a); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Quarantined(); got != 0 {
		t.Fatalf("Quarantined = %d before drain, want 0 (ring-resident)", got)
	}
	h.UnregisterThread(tid)
	if got := h.Quarantined(); got != want {
		t.Fatalf("Quarantined = %d after UnregisterThread, want %d", got, want)
	}
	h.Sweep()
	if got := h.Quarantined(); got != 0 {
		t.Fatalf("Quarantined = %d after sweep, want 0", got)
	}
	if got := h.Stats().Allocated; got != 0 {
		t.Fatalf("Allocated = %d after sweep, want 0", got)
	}
}

// ringHoldsNextFree reports whether tid's next free of a small chunk stays
// in its ring: the push does not fill the ring, and the free does not reach
// the sweepCheckInterval tick that may drain it. Owner-thread only. Nothing
// else drains the ring in TestRingConcurrentStress's configuration: no
// World, no pause, and sweep triggers that never fire.
func ringHoldsNextFree(h *Heap, tid alloc.ThreadID) bool {
	ts := h.threadState(tid)
	return ts.tbuf.Len()+1 < h.cfg.BufferCap && ts.freesSinceCheck+1 < sweepCheckInterval
}

// TestRingConcurrentStress is the private-ring race stress: 8 threads with
// real (non-eager) rings malloc and free concurrently — including cross-thread
// frees and double frees held in one ring window — while a sweeper goroutine
// forces full sweep/LockIn cycles against the drains. Every thread retires
// through UnregisterThread with a part-full ring. Run under -race via make
// race-hot.
func TestRingConcurrentStress(t *testing.T) {
	cfg := testConfig()
	cfg.BufferCap = 32
	h, _ := newTestHeap(t, cfg)

	const threads = 8
	const iters = 1500
	handoff := make(chan uint64, 512)
	stopSweeps := make(chan struct{})
	var sweepWG sync.WaitGroup
	sweepWG.Add(1)
	go func() {
		defer sweepWG.Done()
		for {
			select {
			case <-stopSweeps:
				return
			default:
				h.Sweep()
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		tid := h.RegisterThread()
		wg.Add(1)
		go func(tid alloc.ThreadID, seed uint64) {
			defer wg.Done()
			defer h.UnregisterThread(tid) // retires a possibly part-full ring
			rng := seed
			var live []uint64
			for i := 0; i < iters; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				a, err := h.Malloc(tid, rng%4096+1)
				if err != nil {
					t.Errorf("Malloc: %v", err)
					return
				}
				switch {
				case rng%4 == 0:
					// Hand the allocation to another thread's free path.
					select {
					case handoff <- a:
					default:
						live = append(live, a)
					}
				case rng%7 == 0 && ringHoldsNextFree(h, tid):
					// In-window double free: both entries sit in this
					// ring until one drain publishes them together, and
					// the drain dedups. Were the first free to drain on
					// its own, a sweep could release the chunk and another
					// thread reallocate it before the second free, which
					// would then free that thread's live allocation.
					if err := h.Free(tid, a); err != nil {
						t.Errorf("Free: %v", err)
						return
					}
					_ = h.Free(tid, a) // absorbed or late-detected; never fatal
				default:
					live = append(live, a)
				}
				if rng%3 == 0 {
					select {
					case x := <-handoff:
						if err := h.Free(tid, x); err != nil {
							t.Errorf("foreign Free: %v", err)
							return
						}
					default:
					}
				}
				if len(live) > 48 {
					if err := h.Free(tid, live[len(live)-1]); err != nil {
						t.Errorf("Free: %v", err)
						return
					}
					live = live[:len(live)-1]
				}
			}
			for _, a := range live {
				if err := h.Free(tid, a); err != nil {
					t.Errorf("final Free: %v", err)
					return
				}
			}
		}(tid, uint64(g)*2654435761+7)
	}
	wg.Wait()
	close(stopSweeps)
	sweepWG.Wait()
	close(handoff)
	drain := h.RegisterThread()
	for a := range handoff {
		if err := h.Free(drain, a); err != nil {
			t.Fatalf("drain Free: %v", err)
		}
	}
	h.UnregisterThread(drain)

	// Quiesced: two sweeps release everything (entries appended during a
	// sweep's lock-in window wait for the next epoch). No simulated memory
	// holds pointers to the frees, so nothing can fail.
	h.Sweep()
	h.Sweep()
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Allocated != 0 {
		t.Fatalf("Allocated = %d after full release, want 0", st.Allocated)
	}
	if st.Quarantined != 0 {
		t.Fatalf("Quarantined = %d after full release, want 0", st.Quarantined)
	}
}
