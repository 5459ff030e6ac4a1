package scudo

import (
	"errors"
	"testing"

	"minesweeper/internal/alloc"
	"minesweeper/internal/core"
	"minesweeper/internal/mem"
)

func newBare(t testing.TB) *Allocator {
	t.Helper()
	return NewAllocator(mem.NewAddressSpace())
}

func TestPrimaryAllocFree(t *testing.T) {
	a := newBare(t)
	p, err := a.Malloc(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.UsableSize(p); got != 112 { // 100+1 -> class 112
		t.Errorf("UsableSize = %d, want 112", got)
	}
	if err := a.Free(0, p); err != nil {
		t.Fatal(err)
	}
	if a.AllocatedBytes() != 0 {
		t.Errorf("AllocatedBytes = %d, want 0", a.AllocatedBytes())
	}
}

func TestRandomisedReuse(t *testing.T) {
	// Free N chunks, then reallocate: the reuse order must not be strictly
	// LIFO (hardening). With 32 free chunks the chance of accidentally
	// matching LIFO order is negligible.
	a := newBare(t)
	var addrs []uint64
	for i := 0; i < 32; i++ {
		p, _ := a.Malloc(0, 64)
		addrs = append(addrs, p)
	}
	for _, p := range addrs {
		_ = a.Free(0, p)
	}
	lifo := true
	for i := 31; i >= 0; i-- {
		p, _ := a.Malloc(0, 64)
		if p != addrs[i] {
			lifo = false
			break
		}
	}
	if lifo {
		t.Error("free-list reuse is deterministic LIFO; expected randomised")
	}
}

func TestDoubleAndWildFreeDetected(t *testing.T) {
	a := newBare(t)
	p, _ := a.Malloc(0, 64)
	if err := a.Free(0, p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(0, p); !errors.Is(err, alloc.ErrDoubleFree) {
		t.Errorf("double free = %v, want ErrDoubleFree", err)
	}
	if err := a.Free(0, mem.HeapBase+96); !errors.Is(err, alloc.ErrInvalidFree) {
		t.Errorf("wild free = %v, want ErrInvalidFree", err)
	}
}

func TestSecondary(t *testing.T) {
	a := newBare(t)
	p, err := a.Malloc(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	al, ok := a.Lookup(p)
	if !ok || !al.Large {
		t.Fatalf("Lookup(large) = %+v, %v", al, ok)
	}
	if err := a.DecommitExtent(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(0, p); err != nil {
		t.Fatal(err)
	}
	// Cached extent is reused and recommitted.
	q, err := a.Malloc(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Logf("note: secondary extent not reused")
	}
	if err := a.space.Store64(q, 1); err != nil {
		t.Errorf("store to recommitted secondary: %v", err)
	}
}

func TestPurgeAllDecommitsSecondaryCache(t *testing.T) {
	a := newBare(t)
	p, _ := a.Malloc(0, 1<<20)
	_ = a.Free(0, p)
	rss := a.space.RSS()
	a.PurgeAll()
	if got := a.space.RSS(); got >= rss {
		t.Errorf("RSS = %d after purge, want < %d", got, rss)
	}
}

func TestMineSweeperOverScudo(t *testing.T) {
	// End-to-end: the quarantine layer's UAF guarantee holds over the
	// Scudo substrate.
	space := mem.NewAddressSpace()
	ccfg := core.DefaultConfig()
	ccfg.Mode = core.Synchronous
	ccfg.SweepThreshold = 1e18
	ccfg.PauseThreshold = 0
	ccfg.BufferCap = 1
	h, err := New(space, Config{Core: &ccfg})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	tid := h.RegisterThread()

	g, _ := space.Map(mem.KindGlobals, mem.PageSize, true)
	p, _ := h.Malloc(tid, 64)
	_ = space.Store64(g.Base(), p) // dangling pointer
	if err := h.Free(tid, p); err != nil {
		t.Fatal(err)
	}
	h.Sweep()
	if h.Stats().FailedFrees == 0 {
		t.Error("dangling pointer not detected over scudo substrate")
	}
	for i := 0; i < 100; i++ {
		q, _ := h.Malloc(tid, 64)
		if q == p {
			t.Fatal("quarantined scudo chunk reused")
		}
	}
	_ = space.Store64(g.Base(), 0)
	h.Sweep()
	if h.Stats().Quarantined != 0 {
		t.Error("chunk not released after pointer cleared")
	}
}
