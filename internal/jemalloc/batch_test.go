package jemalloc

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"minesweeper/internal/alloc"
	"minesweeper/internal/mem"
)

// oracleWorkload drives two identically configured heaps through the same
// allocation sequence and returns the live addresses (identical on both, by
// determinism) plus a deterministic rng state for the free phase.
func oracleWorkload(t *testing.T, a, b *Heap, tids []alloc.ThreadID, seed uint64) []uint64 {
	t.Helper()
	rng := seed
	var live []uint64
	for i := 0; i < 800; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		size := rng % 20000 // mix of small classes and large extents
		if size == 0 {
			size = 1
		}
		tid := tids[rng%uint64(len(tids))]
		aa, err := a.Malloc(tid, size)
		if err != nil {
			t.Fatalf("heap A Malloc: %v", err)
		}
		ba, err := b.Malloc(tid, size)
		if err != nil {
			t.Fatalf("heap B Malloc: %v", err)
		}
		if aa != ba {
			t.Fatalf("heaps diverged before any free: %#x vs %#x", aa, ba)
		}
		live = append(live, aa)
	}
	return live
}

// TestFreeBatchOracle proves the batched release path is a pure performance
// transform: FreeBatch must leave the substrate in exactly the state the same
// frees performed one at a time produce — same per-item verdicts, same
// stats, same slab occupancy, same dirty lists — on randomized workloads that
// mix size classes, shards, large extents, and double frees.
func TestFreeBatchOracle(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 12345} {
		cfg := DefaultConfig()
		cfg.TcacheEnabled = false // direct-to-bin on both paths
		cfg.Arenas = 2
		ha := New(mem.NewAddressSpace(), cfg)
		hb := New(mem.NewAddressSpace(), cfg)
		var tids []alloc.ThreadID
		for i := 0; i < 3; i++ {
			ta := ha.RegisterThread()
			tb := hb.RegisterThread()
			if ta != tb {
				t.Fatal("thread registration diverged")
			}
			tids = append(tids, ta)
		}
		live := oracleWorkload(t, ha, hb, tids, seed)

		// Free a random ~2/3 subset, plus in-batch duplicates (double
		// frees) every 16th pick.
		rng := seed ^ 0x5DEECE66D
		var addrs []uint64
		picked := make(map[uint64]bool)
		for i, a := range live {
			rng = rng*6364136223846793005 + 1442695040888963407
			if rng%3 == 0 {
				continue
			}
			addrs = append(addrs, a)
			picked[a] = true
			if i%16 == 0 {
				addrs = append(addrs, a) // duplicate in the same batch
			}
		}

		// Heap A: per-item Free. Heap B: one batch.
		errsA := make([]error, len(addrs))
		for i, addr := range addrs {
			errsA[i] = ha.Free(tids[0], addr)
		}
		errsB := make([]error, len(addrs))
		hb.FreeBatch(tids[0], addrs, errsB)

		for i := range addrs {
			if (errsA[i] == nil) != (errsB[i] == nil) {
				t.Fatalf("seed %d item %d (%#x): per-item err %v, batch err %v",
					seed, i, addrs[i], errsA[i], errsB[i])
			}
			if errsA[i] != nil && !sameErrClass(errsA[i], errsB[i]) {
				t.Fatalf("seed %d item %d (%#x): verdict class differs: %v vs %v",
					seed, i, addrs[i], errsA[i], errsB[i])
			}
		}

		if sa, sb := ha.Stats(), hb.Stats(); sa != sb {
			t.Fatalf("seed %d: Stats diverged:\nper-item: %+v\nbatch:    %+v", seed, sa, sb)
		}
		da, db := ha.DetailedStats(), hb.DetailedStats()
		if !reflect.DeepEqual(da, db) {
			t.Fatalf("seed %d: DetailedStats diverged:\nper-item: %+v\nbatch:    %+v", seed, da, db)
		}
		if aa, ab := ha.arenaStats(), hb.arenaStats(); aa != ab {
			t.Fatalf("seed %d: arenas diverged: %+v vs %+v", seed, aa, ab)
		}
		// Liveness must agree address by address.
		for _, a := range live {
			la, oka := ha.Lookup(a)
			lb, okb := hb.Lookup(a)
			if oka != okb || la != lb {
				t.Fatalf("seed %d: Lookup(%#x) diverged: (%+v,%v) vs (%+v,%v)", seed, a, la, oka, lb, okb)
			}
			if picked[a] && oka {
				t.Fatalf("seed %d: freed address %#x still live", seed, a)
			}
		}
	}
}

func sameErrClass(a, b error) bool {
	for _, class := range []error{alloc.ErrDoubleFree, alloc.ErrInvalidFree, alloc.ErrOutOfMemory} {
		if errors.Is(a, class) {
			return errors.Is(b, class)
		}
	}
	return false
}

// TestFreeBatchCachedRegionIsDoubleFree: a region sitting in some thread's
// tcache reached the batch path only via program UB (its first free cached
// it); the batch must report the duplicate, not free the region under the
// cache's feet.
func TestFreeBatchCachedRegionIsDoubleFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Arenas = 2
	h := New(mem.NewAddressSpace(), cfg)
	tid := h.RegisterThread()
	addr, err := h.Malloc(tid, 48)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Lookup(addr); !ok {
		t.Fatal("Lookup failed")
	}
	if err := h.Free(tid, addr); err != nil { // now tcache-resident
		t.Fatal(err)
	}
	errs := make([]error, 1)
	h.FreeBatch(tid, []uint64{addr}, errs)
	if !errors.Is(errs[0], alloc.ErrDoubleFree) {
		t.Fatalf("batch free of cached region = %v, want ErrDoubleFree", errs[0])
	}
}

// TestFreeBatchByAddress: a batch finds each extent through the page table,
// frees a small and a large allocation, and reports an address no
// allocation covers as invalid.
func TestFreeBatchByAddress(t *testing.T) {
	h := New(mem.NewAddressSpace(), DefaultConfig())
	tid := h.RegisterThread()
	a1, _ := h.Malloc(tid, 64)
	a2, _ := h.Malloc(tid, 1<<20)
	errs := make([]error, 3)
	h.FreeBatch(tid, []uint64{a1, a2, mem.HeapBase + 555}, errs)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("batch free: %v, %v", errs[0], errs[1])
	}
	if !errors.Is(errs[2], alloc.ErrInvalidFree) {
		t.Fatalf("batch free of unmapped address = %v, want ErrInvalidFree", errs[2])
	}
	if got := h.AllocatedBytes(); got != 0 {
		t.Fatalf("AllocatedBytes = %d after batch free, want 0", got)
	}
}

// TestFreeBatchLargeDuplicate: duplicate frees of one large allocation inside
// a single batch release it exactly once.
func TestFreeBatchLargeDuplicate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TcacheEnabled = false
	h := New(mem.NewAddressSpace(), cfg)
	tid := h.RegisterThread()
	addr, _ := h.Malloc(tid, 1<<20)
	errs := make([]error, 2)
	h.FreeBatch(tid, []uint64{addr, addr}, errs)
	if errs[0] != nil {
		t.Fatalf("first free = %v, want nil", errs[0])
	}
	if !errors.Is(errs[1], alloc.ErrInvalidFree) {
		t.Fatalf("duplicate large free = %v, want ErrInvalidFree", errs[1])
	}
	if n := h.arenaStats().dirtyExtents; n != 1 {
		t.Fatalf("dirty extents = %d, want 1 (released exactly once)", n)
	}
	if got := h.Stats().Frees; got != 1 {
		t.Fatalf("Frees = %d, want 1", got)
	}
}

// TestNonfullIndexMaintenance stresses the O(1) nonfull bookkeeping: many
// slabs cycling between full, non-full, and empty, with releases from the
// middle of the list (the swap-remove path).
func TestNonfullIndexMaintenance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TcacheEnabled = false
	cfg.Arenas = 1
	h := New(mem.NewAddressSpace(), cfg)
	tid := h.RegisterThread()
	class := SizeToClass(48)
	regs := SlabRegions(class)
	const slabs = 6
	addrs := make([][]uint64, slabs)
	total := 0
	for s := 0; s < slabs; s++ {
		for r := 0; r < regs; r++ {
			a, err := h.Malloc(tid, 40) // class 48 after pad
			if err != nil {
				t.Fatal(err)
			}
			addrs[s] = append(addrs[s], a)
			total++
		}
	}
	// Make every slab non-full (free one region each), then empty them in
	// an order that forces swap-removes from the middle of nonfull.
	for s := 0; s < slabs; s++ {
		if err := h.Free(tid, addrs[s][0]); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []int{2, 4, 0, 5, 1, 3} {
		for _, a := range addrs[s][1:] {
			if err := h.Free(tid, a); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := h.AllocatedBytes(); got != 0 {
		t.Fatalf("AllocatedBytes = %d, want 0", got)
	}
	d := h.DetailedStats()
	for _, b := range d.Bins {
		if b.Class == class && b.CurRegs != 0 {
			t.Fatalf("class %d CurRegs = %d after freeing everything", class, b.CurRegs)
		}
	}
	// Everything must be reallocatable (freemaps and nonfull lists intact).
	for i := 0; i < total; i++ {
		if _, err := h.Malloc(tid, 40); err != nil {
			t.Fatalf("realloc %d: %v", i, err)
		}
	}
}

// gateHooks blocks the first Decommit until released, modelling a slow
// user-supplied extent hook.
type gateHooks struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateHooks) Commit(space *mem.AddressSpace, base, size uint64) error {
	return DefaultHooks{}.Commit(space, base, size)
}

func (g *gateHooks) Decommit(space *mem.AddressSpace, base, size uint64) error {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return DefaultHooks{}.Decommit(space, base, size)
}

// TestSlowDecommitDoesNotBlockAlloc: PurgeAll calls the (possibly
// user-supplied) decommit hook outside the arena critical section, so a slow
// hook must not stall a concurrent allocation slow path on the same shard.
func TestSlowDecommitDoesNotBlockAlloc(t *testing.T) {
	g := &gateHooks{entered: make(chan struct{}), release: make(chan struct{})}
	cfg := DefaultConfig()
	cfg.Hooks = g
	cfg.TcacheEnabled = false
	cfg.Arenas = 1 // every thread shares the single arena under purge
	h := New(mem.NewAddressSpace(), cfg)
	tid := h.RegisterThread()
	addr, err := h.Malloc(tid, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(tid, addr); err != nil {
		t.Fatal(err)
	}
	purgeDone := make(chan struct{})
	go func() {
		h.PurgeAll()
		close(purgeDone)
	}()
	<-g.entered // the hook is now asleep inside the purge

	allocDone := make(chan error, 1)
	go func() {
		_, err := h.Malloc(tid, 4096)
		allocDone <- err
	}()
	select {
	case err := <-allocDone:
		if err != nil {
			t.Fatalf("Malloc during purge: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("allocExtent blocked behind a slow Decommit hook")
	}
	close(g.release)
	<-purgeDone
	if d := h.arenaStats().dirtyBytes; d != 0 {
		t.Fatalf("committed dirty bytes after purge = %d, want 0", d)
	}
}

// TestSlowDecommitDoesNotBlockTick is the same guarantee for decay purging.
func TestSlowDecommitDoesNotBlockTick(t *testing.T) {
	g := &gateHooks{entered: make(chan struct{}), release: make(chan struct{})}
	cfg := DefaultConfig()
	cfg.Hooks = g
	cfg.TcacheEnabled = false
	cfg.Arenas = 1
	h := New(mem.NewAddressSpace(), cfg)
	tid := h.RegisterThread()
	addr, _ := h.Malloc(tid, 1<<20)
	if err := h.Free(tid, addr); err != nil {
		t.Fatal(err)
	}
	tickDone := make(chan struct{})
	go func() {
		h.Tick(2 * decayCycles) // past the decay deadline: purges the dirty extent
		close(tickDone)
	}()
	<-g.entered
	allocDone := make(chan error, 1)
	go func() {
		_, err := h.Malloc(tid, 4096)
		allocDone <- err
	}()
	select {
	case err := <-allocDone:
		if err != nil {
			t.Fatalf("Malloc during Tick purge: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("allocExtent blocked behind a slow Decommit hook in Tick")
	}
	close(g.release)
	<-tickDone
}

// TestShardedConcurrentMallocFree is the cross-shard stress: 8 threads over 4
// shards, every thread freeing memory it did not allocate about half the
// time (ownership transfer between goroutines), so frees constantly route to
// foreign shards' bins. Run under -race via make race-hot.
func TestShardedConcurrentMallocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Arenas = 4
	h := New(mem.NewAddressSpace(), cfg)
	const threads = 8
	const iters = 2000
	// Cross-thread handoff: each goroutine pushes half its allocations to a
	// shared channel and frees addresses popped from it.
	handoff := make(chan uint64, 1024)
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		tid := h.RegisterThread()
		wg.Add(1)
		go func(tid alloc.ThreadID, seed uint64) {
			defer wg.Done()
			rng := seed
			var live []uint64
			for i := 0; i < iters; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				a, err := h.Malloc(tid, rng%2048+1)
				if err != nil {
					t.Errorf("Malloc: %v", err)
					return
				}
				if rng%2 == 0 {
					select {
					case handoff <- a:
					default:
						live = append(live, a)
					}
				} else {
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
				if len(live) > 64 {
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
		}(tid, uint64(g)*2654435761+1)
	}
	wg.Wait()
	close(handoff)
	tid := h.RegisterThread()
	for a := range handoff {
		if err := h.Free(tid, a); err != nil {
			t.Fatalf("drain Free: %v", err)
		}
	}
	if got := h.AllocatedBytes(); got != 0 {
		t.Fatalf("AllocatedBytes after all frees = %d, want 0", got)
	}
	if h.NumArenas() != 4 {
		t.Fatalf("NumArenas = %d, want 4", h.NumArenas())
	}
}

// TestStatsExactUnderShards: the footprint and stats invariants hold with
// maximal sharding — counters are heap-global, per-shard figures are summed.
func TestStatsExactUnderShards(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TcacheEnabled = false
	cfg.Arenas = 4
	h := New(mem.NewAddressSpace(), cfg)
	var tids []alloc.ThreadID
	for i := 0; i < 4; i++ {
		tids = append(tids, h.RegisterThread())
	}
	type al struct {
		tid  alloc.ThreadID
		addr uint64
		size uint64
	}
	var allocs []al
	var sum uint64
	for i := 0; i < 400; i++ {
		tid := tids[i%len(tids)]
		size := uint64(i%300)*97 + 1
		a, err := h.Malloc(tid, size)
		if err != nil {
			t.Fatal(err)
		}
		us := h.UsableSize(a)
		allocs = append(allocs, al{tid, a, us})
		sum += us
	}
	if got := h.AllocatedBytes(); got != sum {
		t.Fatalf("AllocatedBytes = %d, want %d", got, sum)
	}
	st := h.Stats()
	if st.Allocated != sum {
		t.Fatalf("Stats.Allocated = %d, want %d", st.Allocated, sum)
	}
	d := h.DetailedStats()
	if d.Allocated != sum {
		t.Fatalf("DetailedStats.Allocated = %d, want %d", d.Allocated, sum)
	}
	if d.SlabBytes+d.LargeBytes != st.Active {
		t.Fatalf("Active = %d, want slab %d + large %d", st.Active, d.SlabBytes, d.LargeBytes)
	}
	// Cross-shard frees: every allocation freed by a different thread.
	for _, a := range allocs {
		other := tids[(int(a.tid)+1)%len(tids)]
		if err := h.Free(other, a.addr); err != nil {
			t.Fatalf("cross-shard Free(%#x): %v", a.addr, err)
		}
	}
	if got := h.AllocatedBytes(); got != 0 {
		t.Fatalf("AllocatedBytes after frees = %d, want 0", got)
	}
	if got := h.Stats().Frees; got != uint64(len(allocs)) {
		t.Fatalf("Frees = %d, want %d", got, len(allocs))
	}
}
