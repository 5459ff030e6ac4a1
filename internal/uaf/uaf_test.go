package uaf

import (
	"fmt"
	"testing"

	"minesweeper/internal/alloc"
	"minesweeper/internal/core"
	"minesweeper/internal/ffmalloc"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/markus"
	"minesweeper/internal/mem"
	"minesweeper/internal/sim"
)

func setup(t *testing.T, build func(space *mem.AddressSpace) alloc.Allocator) (*sim.Program, *sim.Thread, *sim.Thread) {
	t.Helper()
	space := mem.NewAddressSpace()
	heap := build(space)
	t.Cleanup(heap.Shutdown)
	prog, err := sim.NewProgram(space, heap, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := prog.NewThread(1)
	if err != nil {
		t.Fatal(err)
	}
	// The attacker allocates on the victim's thread (e.g. a script running
	// inside the victim process, as in the paper's browser example), so
	// thread caches do not mask reuse.
	return prog, victim, victim
}

func msBuild(space *mem.AddressSpace) alloc.Allocator { return msRingBuild(1)(space) }

// msRingBuild is msBuild with a thread ring of bufferCap frees.
func msRingBuild(bufferCap int) func(space *mem.AddressSpace) alloc.Allocator {
	return func(space *mem.AddressSpace) alloc.Allocator {
		cfg := core.DefaultConfig()
		cfg.Mode = core.Synchronous
		cfg.SweepThreshold = 1e18
		cfg.PauseThreshold = 0
		cfg.BufferCap = bufferCap
		h, err := core.New(space, cfg, jemalloc.DefaultConfig())
		if err != nil {
			panic(err)
		}
		return h
	}
}

func TestExploitSucceedsOnBaseline(t *testing.T) {
	prog, victim, attacker := setup(t, func(s *mem.AddressSpace) alloc.Allocator {
		return jemalloc.New(s, jemalloc.DefaultConfig())
	})
	res, err := Run(prog, victim, attacker, DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Exploited {
		t.Errorf("baseline outcome = %v, want EXPLOITED", res.Outcome)
	}
	if res.SprayHits == 0 {
		t.Error("spray never hit the victim address on baseline")
	}
	if res.ReadVtable != MaliciousVtable {
		t.Errorf("victim read %#x, want malicious vtable", res.ReadVtable)
	}
}

// TestExploitPreventedByMineSweeper runs the paper's exploit with a ring
// that drains on every free, and with a 64-entry ring in which the victim's
// free stays undrained through both sweeps (this sim has no World, so no
// stop-the-world quiesce drains it). Zero-on-free runs inside free(), so in
// both the dangling dispatch reads 0, never the stale or attacker vtable.
func TestExploitPreventedByMineSweeper(t *testing.T) {
	for _, bufferCap := range []int{1, 64} {
		t.Run(fmt.Sprintf("ring%d", bufferCap), func(t *testing.T) {
			prog, victim, attacker := setup(t, msRingBuild(bufferCap))
			res, err := Run(prog, victim, attacker, DefaultScenario())
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome == Exploited {
				t.Fatalf("MineSweeper failed to prevent the exploit (hits=%d)", res.SprayHits)
			}
			if res.SprayHits != 0 {
				t.Errorf("quarantined address handed to attacker %d times", res.SprayHits)
			}
			// Zero-on-free: the benign read sees 0, not the legit vtable.
			if res.Outcome != Benign || res.ReadVtable != 0 {
				t.Errorf("outcome %v, read %#x; want benign, 0 (zeroed)", res.Outcome, res.ReadVtable)
			}
		})
	}
}

func TestExploitPreventedByMarkUs(t *testing.T) {
	prog, victim, attacker := setup(t, func(s *mem.AddressSpace) alloc.Allocator {
		cfg := markus.DefaultConfig()
		cfg.Synchronous = true
		cfg.SweepThreshold = 1e18
		return markus.New(s, cfg, jemalloc.DefaultConfig())
	})
	res, err := Run(prog, victim, attacker, DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == Exploited {
		t.Fatal("MarkUs failed to prevent the exploit")
	}
	// MarkUs does not zero: the benign read sees the ORIGINAL vtable,
	// which is still not attacker-controlled.
	if res.Outcome == Benign && res.ReadVtable == MaliciousVtable {
		t.Error("read attacker data")
	}
}

func TestExploitPreventedByFFMalloc(t *testing.T) {
	prog, victim, attacker := setup(t, func(s *mem.AddressSpace) alloc.Allocator {
		return ffmalloc.New(s)
	})
	res, err := Run(prog, victim, attacker, DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == Exploited {
		t.Fatal("FFMalloc failed to prevent the exploit")
	}
	if res.SprayHits != 0 {
		t.Error("FFMalloc reused the retired address")
	}
}

func TestLargeObjectExploitFaultsCleanly(t *testing.T) {
	// Large quarantined objects are unmapped: the dangling dispatch
	// faults — the paper's clean-termination path.
	prog, victim, attacker := setup(t, msBuild)
	sc := Scenario{ObjectSize: 1 << 20, SprayCount: 8, Sweeps: 0}
	res, err := Run(prog, victim, attacker, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Faulted {
		t.Errorf("outcome = %v, want clean fault", res.Outcome)
	}
}

func TestExploitWindowClosesOnlyAfterPointerGone(t *testing.T) {
	// Once the program erases the dangling pointer and a sweep runs, the
	// address may be legally reused — and that is safe, because no
	// dangling pointer remains.
	prog, victim, attacker := setup(t, msBuild)
	x, _ := victim.Malloc(48)
	_ = victim.Store(prog.GlobalSlot(0), x)
	_ = victim.Free(x)
	prog.Heap().(Sweeper).Sweep()
	// Still pinned.
	reused := false
	for i := 0; i < 200; i++ {
		a, _ := attacker.Malloc(48)
		if a == x {
			reused = true
		}
		_ = attacker.Free(a)
	}
	if reused {
		t.Fatal("address reused while dangling pointer live")
	}
	// Erase pointer, sweep twice (entries requeued for the next epoch).
	_ = victim.Store(prog.GlobalSlot(0), 0)
	prog.Heap().(Sweeper).Sweep()
	prog.Heap().(Sweeper).Sweep()
	for i := 0; i < 500 && !reused; i++ {
		a, _ := attacker.Malloc(48)
		if a == x {
			reused = true
		}
	}
	if !reused {
		t.Error("address never reused even after pointer removed (leak)")
	}
}

func TestDoubleFreeProbe(t *testing.T) {
	// MineSweeper absorbs double frees without corruption.
	_, victim, _ := setup(t, msBuild)
	absorbed, corrupted, err := DoubleFreeProbe(victim, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !absorbed {
		t.Error("MineSweeper did not absorb the double free")
	}
	if corrupted {
		t.Error("allocator state corrupted by double free")
	}
}

func TestDoubleFreeProbeBaseline(t *testing.T) {
	// The jemalloc substrate detects this case (tcache check); real
	// allocators may corrupt instead. Either way it must not be absorbed
	// silently as safe AND corrupt state.
	_, victim, _ := setup(t, func(s *mem.AddressSpace) alloc.Allocator {
		return jemalloc.New(s, jemalloc.DefaultConfig())
	})
	_, corrupted, err := DoubleFreeProbe(victim, 64)
	if err != nil {
		t.Fatal(err)
	}
	if corrupted {
		t.Error("baseline corrupted (probe expects detection in this substrate)")
	}
}
