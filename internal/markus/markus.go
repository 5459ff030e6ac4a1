// Package markus implements the MarkUs baseline (Ainsworth & Jones, S&P
// 2020), the state-of-the-art quarantine scheme MineSweeper is evaluated
// against. MarkUs also quarantines freed allocations, but decides safety with
// a garbage-collector-style *transitive* conservative marking pass (via the
// Boehm GC in the original): reachability is computed from the root set
// (stacks and globals) through the whole live object graph, and quarantined
// allocations that are reachable stay quarantined.
//
// Differences from MineSweeper reproduced here:
//
//   - marking is transitive object-graph traversal with per-object lookups,
//     not a linear sweep — the central cost the paper's comparison targets;
//   - no zeroing on free: transitive marking handles chains and cycles in
//     quarantine (at the cost of traversing them);
//   - the sweep trigger is 25% of the heap (MineSweeper tightens to 15%);
//   - the marking pass stops the world (the original is mostly parallel;
//     its stop phases dominate, and a full-STW mark is the conservative
//     stand-in — see DESIGN.md).
//
// Like MarkUs, large quarantined allocations have their physical pages
// released while they wait.
package markus

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"minesweeper/internal/alloc"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
	"minesweeper/internal/quarantine"
	"minesweeper/internal/sweep"
)

// Config controls the MarkUs baseline.
type Config struct {
	// SweepThreshold is the quarantine fraction that triggers a marking
	// pass (0.25 in the MarkUs paper).
	SweepThreshold float64
	// World stops mutators during marking. Nil skips stopping (tests).
	World sweep.StopTheWorld
	// Synchronous runs marking on the freeing thread instead of a
	// background collector thread.
	Synchronous bool
}

// DefaultConfig returns MarkUs defaults.
func DefaultConfig() Config {
	return Config{SweepThreshold: 0.25}
}

// Heap is the MarkUs-protected heap.
type Heap struct {
	cfg   Config
	je    *jemalloc.Heap
	space *mem.AddressSpace
	q     *quarantine.Quarantine
	// admit is the one-entry ring every free enters the quarantine through;
	// admitMu serialises the frees of all threads on it.
	admitMu sync.Mutex
	admit   *quarantine.ThreadBuffer

	markReq chan struct{}
	stop    chan struct{}
	wg      sync.WaitGroup
	markMu  sync.Mutex

	collectorTid alloc.ThreadID

	sweeps        atomic.Uint64
	failedFrees   atomic.Uint64
	releasedFrees atomic.Uint64
	stwNanos      atomic.Int64
	busyNanos     atomic.Int64
	bytesMarked   atomic.Uint64
}

var _ alloc.Allocator = (*Heap)(nil)

// New builds a MarkUs heap over space.
func New(space *mem.AddressSpace, cfg Config, jcfg jemalloc.Config) *Heap {
	h := &Heap{
		cfg:     cfg,
		space:   space,
		q:       quarantine.New(),
		markReq: make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	h.admit = quarantine.NewThreadBuffer(h.q, 1)
	h.je = jemalloc.New(space, jcfg)
	h.collectorTid = h.je.RegisterThread()
	if !cfg.Synchronous {
		h.wg.Add(1)
		go h.collectorLoop()
	}
	return h
}

// String returns the scheme name.
func (h *Heap) String() string { return "markus" }

// RegisterThread implements alloc.Allocator.
func (h *Heap) RegisterThread() alloc.ThreadID {
	return h.je.RegisterThread() - 1 // collector holds substrate tid 0
}

// UnregisterThread implements alloc.Allocator.
func (h *Heap) UnregisterThread(tid alloc.ThreadID) { h.je.UnregisterThread(tid + 1) }

// Malloc implements alloc.Allocator.
func (h *Heap) Malloc(tid alloc.ThreadID, size uint64) (uint64, error) {
	return h.je.Malloc(tid+1, size)
}

// Free implements alloc.Allocator: quarantine without zeroing.
func (h *Heap) Free(tid alloc.ThreadID, addr uint64) error {
	a, ok := h.je.Lookup(addr)
	if !ok || a.Base != addr {
		if h.q.Contains(addr) {
			return nil // absorbed double free
		}
		return fmt.Errorf("%w: %#x", alloc.ErrInvalidFree, addr)
	}
	// A double free of a quarantined allocation decommits again, which is
	// a no-op, and the drain rejects it.
	e := quarantine.NewEntry(a.Base, a.Size)
	if a.Large {
		if err := h.je.DecommitExtent(a.Base); err == nil {
			e.SetUnmapped()
		}
	}
	h.admitMu.Lock()
	h.admit.Push(e)
	dups := h.admit.Drain()
	h.admitMu.Unlock()
	if dups > 0 {
		return nil // absorbed double free
	}

	qb := h.q.Bytes()
	heapB := h.je.AllocatedBytes()
	if float64(qb) > h.cfg.SweepThreshold*float64(heapB+1) {
		if h.cfg.Synchronous {
			h.Collect()
		} else {
			select {
			case h.markReq <- struct{}{}:
			default:
			}
		}
	}
	return nil
}

func (h *Heap) collectorLoop() {
	defer h.wg.Done()
	for {
		select {
		case <-h.stop:
			return
		case <-h.markReq:
			h.Collect()
		}
	}
}

// Collect performs one marking pass and recycles unreachable quarantined
// allocations.
func (h *Heap) Collect() {
	h.markMu.Lock()
	defer h.markMu.Unlock()

	locked := h.q.LockIn()
	if len(locked) == 0 {
		return
	}
	start := time.Now()
	// Synchronous mode marks on the freeing thread, which is already
	// stopped by definition; stopping the world from it would deadlock
	// waiting for itself to reach a safepoint.
	world := h.cfg.World
	if h.cfg.Synchronous {
		world = nil
	}
	if world != nil {
		world.Stop()
	}
	stwStart := time.Now()
	visited := h.mark()
	stw := time.Since(stwStart)
	if world != nil {
		world.Start()
	}
	h.stwNanos.Add(int64(stw))

	// Unreachable entries are compacted to the front of locked and leave the
	// membership set as one batch before any of them is freed.
	var fails []quarantine.Entry
	n := 0
	for i := range locked {
		e := &locked[i]
		if _, reachable := visited[e.Base]; reachable {
			h.q.NoteFailed(e)
			h.failedFrees.Add(1)
			fails = append(fails, *e)
			continue
		}
		locked[n] = *e
		n++
	}
	rel := h.q.NewReleaser()
	rel.ReleaseBatch(locked[:n])
	rel.Flush()
	h.releasedFrees.Add(uint64(n))
	for _, e := range locked[:n] {
		if err := h.je.Free(h.collectorTid, e.Base); err != nil {
			// Late double free (see core.filterAndRecycle): the
			// substrate rejected it; absorb.
			if !errors.Is(err, alloc.ErrDoubleFree) && !errors.Is(err, alloc.ErrInvalidFree) {
				panic("markus: substrate free failed: " + err.Error())
			}
		}
	}
	if len(fails) > 0 {
		h.q.Requeue(fails)
	}
	h.je.PurgeAll()
	h.sweeps.Add(1)
	h.busyNanos.Add(int64(time.Since(start)))
}

// mark computes the conservative reachable set: a BFS from all root words
// (stacks and globals) through every reachable allocation, treating each
// aligned word as a potential pointer — the Boehm-style transitive marking
// procedure (paper §4.1, Figure 6a).
func (h *Heap) mark() map[uint64]struct{} {
	visited := make(map[uint64]struct{}, 1024)
	var queue []alloc.Allocation

	resolve := func(word uint64) {
		if !mem.IsHeapAddr(word) {
			return
		}
		a, ok := h.je.Lookup(word)
		if !ok {
			return
		}
		if _, seen := visited[a.Base]; seen {
			return
		}
		visited[a.Base] = struct{}{}
		queue = append(queue, a)
	}

	// Root scan: stacks and globals.
	var marked uint64
	for _, r := range h.space.Regions(nil) {
		if r.Kind() != mem.KindStack && r.Kind() != mem.KindGlobals {
			continue
		}
		for p := 0; p < r.PageCount(); p++ {
			if !r.PageReadable(p) {
				continue
			}
			base := p * mem.WordsPerPage
			r.LockPage(p)
			for w := 0; w < mem.WordsPerPage; w++ {
				resolve(r.WordAt(base + w))
			}
			r.UnlockPage(p)
			marked += mem.PageSize
		}
	}

	// Transitive closure over reachable objects. ScanRange skips unmapped
	// quarantined pages and orders reads against concurrent zeroing.
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		r := h.space.Lookup(a.Base)
		if r == nil {
			continue
		}
		r.ScanRange(a.Base, a.Size, resolve)
		marked += a.Size
	}
	h.bytesMarked.Add(marked)
	return visited
}

// UsableSize implements alloc.Allocator.
func (h *Heap) UsableSize(addr uint64) uint64 {
	if h.q.Contains(addr) {
		return 0
	}
	return h.je.UsableSize(addr)
}

// Tick implements alloc.Allocator.
func (h *Heap) Tick(now uint64) { h.je.Tick(now) }

// Quarantined returns quarantined bytes (mapped + unmapped).
func (h *Heap) Quarantined() uint64 { return h.q.Bytes() + h.q.UnmappedBytes() }

// Stats implements alloc.Allocator.
func (h *Heap) Stats() alloc.Stats {
	st := h.je.Stats()
	q := h.q.Bytes() + h.q.UnmappedBytes()
	if st.Allocated >= q {
		st.Allocated -= q
	} else {
		st.Allocated = 0
	}
	st.Quarantined = q
	st.QuarantinedUnmapped = h.q.UnmappedBytes()
	st.MetaBytes += h.q.MetaBytes()
	st.Sweeps = h.sweeps.Load()
	st.FailedFrees = h.failedFrees.Load()
	st.ReleasedFrees = h.releasedFrees.Load()
	st.DoubleFrees = h.q.DoubleFrees()
	st.SweeperCycles = uint64(h.busyNanos.Load())
	st.STWCycles = uint64(h.stwNanos.Load())
	st.BytesSwept = h.bytesMarked.Load()
	return st
}

// Shutdown implements alloc.Allocator.
func (h *Heap) Shutdown() {
	if !h.cfg.Synchronous {
		close(h.stop)
		h.wg.Wait()
	}
}
