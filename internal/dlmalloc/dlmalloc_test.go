package dlmalloc

import (
	"errors"
	"testing"

	"minesweeper/internal/alloc"
	"minesweeper/internal/core"
	"minesweeper/internal/mem"
	"minesweeper/internal/sim"
)

func setup(t *testing.T) (*sim.Program, *sim.Thread, *Heap, *mem.AddressSpace) {
	t.Helper()
	space := mem.NewAddressSpace()
	h := New(space)
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
	return prog, th, h, space
}

func TestMallocFreeReuseLIFO(t *testing.T) {
	_, th, _, _ := setup(t)
	a, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(a); err != nil {
		t.Fatal(err)
	}
	b, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Errorf("free-list reuse not LIFO: %#x then %#x", a, b)
	}
}

func TestInBandHeader(t *testing.T) {
	_, th, _, space := setup(t)
	a, _ := th.Malloc(100) // class 112
	hdr, err := space.Load64(a - 8)
	if err != nil {
		t.Fatal(err)
	}
	if hdr&1 != 1 {
		t.Error("in-use flag not set in in-band header")
	}
	if hdr&^1 != 112 {
		t.Errorf("header size = %d, want 112", hdr&^1)
	}
	_ = th.Free(a)
	hdr, _ = space.Load64(a - 8)
	if hdr&1 != 0 {
		t.Error("in-use flag still set after free")
	}
}

func TestFreeListLinkageInHeap(t *testing.T) {
	_, th, h, space := setup(t)
	a, _ := th.Malloc(64)
	b, _ := th.Malloc(64)
	_ = th.Free(a)
	_ = th.Free(b)
	// Bin head is b; b's fd word (in heap memory) points to a.
	if got := h.BinHead(64); got != b {
		t.Fatalf("bin head = %#x, want %#x", got, b)
	}
	fd, err := space.Load64(b)
	if err != nil || fd != a {
		t.Errorf("fd word = %#x, %v; want %#x", fd, err, a)
	}
}

func TestDoubleFreeDetectedByHeader(t *testing.T) {
	_, th, _, _ := setup(t)
	a, _ := th.Malloc(64)
	_ = th.Free(a)
	if err := th.Free(a); !errors.Is(err, alloc.ErrDoubleFree) {
		t.Errorf("double free = %v, want ErrDoubleFree", err)
	}
}

// TestMetadataCorruptionAttack makes the paper's §2 footnote executable: a
// use-after-free WRITE through a dangling pointer poisons the freed chunk's
// fd word, and a subsequent malloc returns an attacker-chosen address —
// here, one that aliases a live victim object.
func TestMetadataCorruptionAttack(t *testing.T) {
	prog, th, _, _ := setup(t)

	victim, _ := th.Malloc(64) // the object the attacker wants to overlap
	_ = th.Store(victim, 0x5AFE)
	_ = th.Store(prog.GlobalSlot(1), victim)

	chunk, _ := th.Malloc(64)
	_ = th.Free(chunk) // chunk now heads the 64-byte free list

	// The bug: a dangling WRITE into the freed chunk — which is exactly
	// where the allocator keeps its fd pointer.
	if err := th.Store(chunk, victim); err != nil {
		t.Fatalf("dangling write: %v", err)
	}

	// First malloc returns the chunk; the SECOND pops the poisoned fd and
	// hands out the live victim's address.
	m1, _ := th.Malloc(64)
	m2, _ := th.Malloc(64)
	if m1 != chunk {
		t.Fatalf("first malloc = %#x, want chunk %#x", m1, chunk)
	}
	if m2 != victim {
		t.Fatalf("fd poisoning failed: second malloc = %#x, want victim %#x", m2, victim)
	}
	// The attacker now "legitimately" owns memory aliasing the live
	// victim: writing through m2 clobbers it.
	_ = th.Store(m2, 0xBAD)
	v, _ := th.Load(victim)
	if v == 0x5AFE {
		t.Error("aliasing write did not reach the victim (unexpected)")
	}
}

// TestMineSweeperBlocksMetadataCorruption runs the same attack with
// MineSweeper dropped onto the dlmalloc substrate: the freed chunk is
// quarantined, never enters the in-heap free list while the dangling pointer
// exists, and the poisoning write lands in (zeroed, quarantined) memory that
// the allocator never trusts.
func TestMineSweeperBlocksMetadataCorruption(t *testing.T) {
	space := mem.NewAddressSpace()
	sub := New(space)
	cfg := core.DefaultConfig()
	cfg.Mode = core.Synchronous
	cfg.SweepThreshold = 1e18
	cfg.PauseThreshold = 0
	cfg.BufferCap = 1
	cfg.Unmapping = false // dlmalloc cannot release chunk pages
	h, err := core.NewWithSubstrate(space, cfg, sub)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	prog, err := sim.NewProgram(space, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	th, err := prog.NewThread(1)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()

	victim, _ := th.Malloc(64)
	_ = th.Store(victim, 0x5AFE)
	_ = th.Store(prog.GlobalSlot(1), victim)

	chunk, _ := th.Malloc(64)
	// Keep a dangling pointer to the chunk, then free it.
	_ = th.Store(prog.GlobalSlot(2), chunk)
	if err := th.Free(chunk); err != nil {
		t.Fatal(err)
	}
	h.Sweep() // chunk has a dangling pointer: stays quarantined

	// The dangling write "poisons" quarantined memory — which is not a
	// free list, because the chunk never reached one.
	_ = th.Store(chunk, victim)

	for i := 0; i < 100; i++ {
		m, err := th.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if m == victim {
			t.Fatal("malloc returned a live object's address")
		}
		if m == chunk {
			t.Fatal("malloc returned the quarantined chunk")
		}
	}
	v, _ := th.Load(victim)
	if v != 0x5AFE {
		t.Errorf("victim corrupted: %#x", v)
	}
}

func TestLargeChunks(t *testing.T) {
	_, th, _, _ := setup(t)
	a, err := th.Malloc(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Store(a+99_992, 1); err != nil {
		t.Errorf("store near end of large chunk: %v", err)
	}
	if err := th.Free(a); err != nil {
		t.Fatal(err)
	}
}

func TestChurnStaysSound(t *testing.T) {
	_, th, h, _ := setup(t)
	rng := sim.NewRand(5)
	live := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		if len(live) > 64 || (len(live) > 0 && rng.Intn(3) == 0) {
			for a := range live {
				if err := th.Free(a); err != nil {
					t.Fatal(err)
				}
				delete(live, a)
				break
			}
			continue
		}
		a, err := th.Malloc(rng.Range(8, 4096))
		if err != nil {
			t.Fatal(err)
		}
		if live[a] {
			t.Fatalf("live address %#x handed out twice", a)
		}
		live[a] = true
	}
	for a := range live {
		_ = th.Free(a)
	}
	if h.AllocatedBytes() != 0 {
		t.Errorf("AllocatedBytes = %d at end", h.AllocatedBytes())
	}
}

// TestLookupSurvivesConcurrentReuse frees chunks on one goroutine, as a
// MineSweeper sweep releases them, while another mallocs from the same
// class and keeps every other chunk. A chunk the freer pushes can be popped
// and re-registered at once, so every kept chunk must still resolve through
// Lookup: the drop-in layer resolves a free through it, and a missing entry
// rejects the free of a live allocation as invalid.
func TestLookupSurvivesConcurrentReuse(t *testing.T) {
	h := New(mem.NewAddressSpace())
	const n = 20000
	toFree := make(chan uint64, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range toFree {
			if err := h.Free(0, a); err != nil {
				t.Errorf("Free(%#x): %v", a, err)
			}
		}
	}()
	kept := make([]uint64, 0, n/2)
	for i := 0; i < n; i++ {
		a, err := h.Malloc(0, 48)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			toFree <- a
		} else {
			kept = append(kept, a)
		}
	}
	close(toFree)
	<-done
	for _, a := range kept {
		if _, ok := h.Lookup(a); !ok {
			t.Fatalf("live chunk %#x missing from Lookup", a)
		}
	}
}
