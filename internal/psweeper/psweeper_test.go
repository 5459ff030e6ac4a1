package psweeper

import (
	"errors"
	"testing"

	"minesweeper/internal/alloc"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
	"minesweeper/internal/sim"
)

func setup(t *testing.T) (*sim.Program, *sim.Thread, *Heap) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Synchronous = true
	cfg.WakeThreshold = 1e18 // manual sweeps only
	space := mem.NewAddressSpace()
	h := New(space, cfg, jemalloc.DefaultConfig())
	t.Cleanup(h.Shutdown)
	prog, err := sim.NewProgram(space, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	th, err := prog.NewThread(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(th.Close)
	return prog, th, h
}

func TestDeallocationDeferredUntilSweep(t *testing.T) {
	_, th, h := setup(t)
	a, _ := th.Malloc(48)
	if err := th.Free(a); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		b, _ := th.Malloc(48)
		if b == a {
			t.Fatal("address reused before a full sweep")
		}
	}
	if h.Stats().Quarantined == 0 {
		t.Error("deferred free not accounted")
	}
	h.Sweep()
	if h.Stats().Quarantined != 0 {
		t.Error("sweep did not release the deferred free")
	}
}

func TestSweepNullifiesDanglingPointers(t *testing.T) {
	prog, th, h := setup(t)
	a, _ := th.Malloc(64)
	_ = th.Store(prog.GlobalSlot(0), a+8)
	_ = th.Free(a)
	h.Sweep()
	if h.Nullified() != 1 {
		t.Fatalf("Nullified = %d, want 1", h.Nullified())
	}
	v, _ := th.Load(prog.GlobalSlot(0))
	if v&Poison != Poison {
		t.Errorf("dangling pointer = %#x, want poisoned", v)
	}
	// Post-sweep, the memory is recyclable and the pointer is dead.
	if _, err := th.Load(v); err == nil {
		t.Error("poisoned pointer dereference succeeded")
	}
}

func TestLivePointerTableMaintained(t *testing.T) {
	prog, th, h := setup(t)
	a, _ := th.Malloc(64)
	_ = th.Store(prog.GlobalSlot(0), a)
	if h.tableSize.Load() != 1 {
		t.Errorf("table size = %d, want 1", h.tableSize.Load())
	}
	_ = th.Store(prog.GlobalSlot(0), 7) // non-pointer overwrite
	if h.tableSize.Load() != 0 {
		t.Errorf("table size after overwrite = %d, want 0", h.tableSize.Load())
	}
	_ = th.Free(a)
	h.Sweep()
	if h.Nullified() != 0 {
		t.Error("nullified a pointer that was already gone")
	}
}

func TestPointersToLiveObjectsUntouched(t *testing.T) {
	prog, th, h := setup(t)
	live, _ := th.Malloc(64)
	dead, _ := th.Malloc(64)
	_ = th.Store(prog.GlobalSlot(0), live)
	_ = th.Free(dead)
	h.Sweep()
	if v, _ := th.Load(prog.GlobalSlot(0)); v != live {
		t.Errorf("live pointer modified: %#x", v)
	}
}

func TestDoubleFreeWhileDeferredIdempotent(t *testing.T) {
	_, th, h := setup(t)
	a, _ := th.Malloc(48)
	_ = th.Free(a)
	if err := th.Free(a); err != nil {
		t.Errorf("double free while deferred = %v, want nil", err)
	}
	h.Sweep()
	if got := h.Stats().Frees; got != 1 {
		t.Errorf("substrate frees = %d, want 1", got)
	}
}

func TestInvalidFree(t *testing.T) {
	_, th, _ := setup(t)
	if err := th.Free(mem.HeapBase + 8); !errors.Is(err, alloc.ErrInvalidFree) {
		t.Errorf("Free(wild) = %v", err)
	}
}

func TestBackgroundSweeperRuns(t *testing.T) {
	space := mem.NewAddressSpace()
	h := New(space, DefaultConfig(), jemalloc.DefaultConfig())
	defer h.Shutdown()
	prog, _ := sim.NewProgram(space, h, nil)
	th, _ := prog.NewThread(1)
	defer th.Close()
	for i := 0; i < 3000; i++ {
		a, err := th.Malloc(256)
		if err != nil {
			t.Fatal(err)
		}
		if err := th.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	h.Shutdown()
	if h.Stats().Sweeps == 0 {
		t.Error("background sweeper never ran")
	}
	if h.Stats().Quarantined != 0 {
		t.Errorf("deferred bytes remain after shutdown: %d", h.Stats().Quarantined)
	}
}
