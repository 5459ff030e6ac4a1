// Package psweeper implements the pSweeper baseline (Liu, Zhang & Wang, CCS
// 2018): a robust and efficient defense against use-after-free exploits via
// concurrent pointer sweeping. Compiler instrumentation maintains a live
// pointer table — the set of memory locations currently holding heap
// pointers — and a dedicated background thread repeatedly sweeps that table,
// nullifying entries that point into freed objects. Deallocation is delayed
// until one full sweep has completed after the corresponding free() (§6.4).
//
// The evaluated variant mirrors the paper's "pSweeper-1s": the sweeper
// sleeps between rounds (interval scaled to simulator time), and also wakes
// early when deferred frees accumulate, bounding memory.
package psweeper

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"minesweeper/internal/alloc"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
)

// Poison is the invalid value dangling locations are overwritten with.
const Poison uint64 = 0xDEAD_5EE9_0000_0000

const shards = 64

// interval is the time between sweep rounds: the paper's 1 s, scaled to
// simulator time.
const interval = 25 * time.Millisecond

// Config tunes the sweeper.
type Config struct {
	// WakeThreshold wakes the sweeper early when deferred-free bytes
	// exceed this fraction of the heap (default 0.25).
	WakeThreshold float64
	// Synchronous sweeps inline on free-threshold crossings (tests).
	Synchronous bool
}

// DefaultConfig returns the pSweeper-1s analogue.
func DefaultConfig() Config {
	return Config{WakeThreshold: 0.25}
}

type tableShard struct {
	mu sync.Mutex
	// locs is the live-pointer table slice: location -> pointee word.
	locs map[uint64]struct{}
}

type zombie struct {
	base, size uint64
}

// Heap is the pSweeper-protected heap.
type Heap struct {
	cfg   Config
	je    *jemalloc.Heap
	space *mem.AddressSpace

	shards [shards]tableShard

	zmu     sync.Mutex
	pending []zombie // freed, waiting for the next full sweep

	sweeperTid  alloc.ThreadID
	zombieBytes atomic.Int64
	sweeps      atomic.Uint64
	nullified   atomic.Uint64
	busyNanos   atomic.Int64
	tableSize   atomic.Int64

	stop     chan struct{}
	kick     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
}

var _ alloc.Allocator = (*Heap)(nil)
var _ alloc.PointerObserver = (*Heap)(nil)

// New builds a pSweeper heap over space.
func New(space *mem.AddressSpace, cfg Config, jcfg jemalloc.Config) *Heap {
	if cfg.WakeThreshold <= 0 {
		cfg.WakeThreshold = 0.25
	}
	h := &Heap{
		cfg:   cfg,
		space: space,
		je:    jemalloc.New(space, jcfg),
		stop:  make(chan struct{}),
		kick:  make(chan struct{}, 1),
	}
	// The sweeper releases memory from its own substrate thread: thread
	// caches are single-owner.
	h.sweeperTid = h.je.RegisterThread()
	for i := range h.shards {
		h.shards[i].locs = make(map[uint64]struct{})
	}
	if !cfg.Synchronous {
		h.wg.Add(1)
		go h.sweeperLoop()
	}
	return h
}

// String returns the scheme name.
func (h *Heap) String() string { return "psweeper" }

func (h *Heap) shardFor(loc uint64) *tableShard {
	return &h.shards[((loc>>3)*0x9E3779B97F4A7C15)>>58]
}

// RegisterThread implements alloc.Allocator.
func (h *Heap) RegisterThread() alloc.ThreadID { return h.je.RegisterThread() }

// UnregisterThread implements alloc.Allocator.
func (h *Heap) UnregisterThread(tid alloc.ThreadID) { h.je.UnregisterThread(tid) }

// Malloc implements alloc.Allocator.
func (h *Heap) Malloc(tid alloc.ThreadID, size uint64) (uint64, error) {
	return h.je.Malloc(tid, size)
}

// NoteStore implements alloc.PointerObserver: maintain the live pointer
// table. A location enters the table when a heap pointer is stored to it and
// leaves when it is overwritten with a non-pointer.
func (h *Heap) NoteStore(_ alloc.ThreadID, addr, old, new uint64) {
	newPtr := mem.IsHeapAddr(new)
	oldPtr := mem.IsHeapAddr(old)
	if !newPtr && !oldPtr {
		return
	}
	s := h.shardFor(addr)
	s.mu.Lock()
	if newPtr {
		if _, ok := s.locs[addr]; !ok {
			s.locs[addr] = struct{}{}
			h.tableSize.Add(1)
		}
	} else {
		if _, ok := s.locs[addr]; ok {
			delete(s.locs, addr)
			h.tableSize.Add(-1)
		}
	}
	s.mu.Unlock()
}

// Free implements alloc.Allocator: defer deallocation until the next full
// sweep nullifies any dangling pointers to the object.
func (h *Heap) Free(tid alloc.ThreadID, addr uint64) error {
	a, ok := h.je.Lookup(addr)
	if !ok || a.Base != addr {
		return fmt.Errorf("%w: %#x", alloc.ErrInvalidFree, addr)
	}
	h.zmu.Lock()
	// Double free while deferred: idempotent.
	for _, z := range h.pending {
		if z.base == a.Base {
			h.zmu.Unlock()
			return nil
		}
	}
	h.pending = append(h.pending, zombie{base: a.Base, size: a.Size})
	h.zmu.Unlock()
	h.zombieBytes.Add(int64(a.Size))

	if float64(h.zombieBytes.Load()) > h.cfg.WakeThreshold*float64(h.je.AllocatedBytes()+1) {
		if h.cfg.Synchronous {
			h.Sweep()
		} else {
			select {
			case h.kick <- struct{}{}:
			default:
			}
		}
	}
	return nil
}

func (h *Heap) sweeperLoop() {
	defer h.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
			h.Sweep()
		case <-h.kick:
			h.Sweep()
		}
	}
}

// Sweep performs one full pass over the live pointer table, nullifying
// pointers into deferred-freed objects, then releases those objects.
func (h *Heap) Sweep() {
	h.zmu.Lock()
	batch := h.pending
	h.pending = nil
	h.zmu.Unlock()
	if len(batch) == 0 {
		return
	}
	start := time.Now()
	sort.Slice(batch, func(i, j int) bool { return batch[i].base < batch[j].base })
	find := func(v uint64) *zombie {
		i := sort.Search(len(batch), func(i int) bool { return batch[i].base+batch[i].size > v })
		if i < len(batch) && v >= batch[i].base {
			return &batch[i]
		}
		return nil
	}

	// Full scan of the live pointer table.
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		locs := make([]uint64, 0, len(s.locs))
		for loc := range s.locs {
			locs = append(locs, loc)
		}
		s.mu.Unlock()
		for _, loc := range locs {
			v, err := h.space.Load64(loc)
			if err != nil {
				continue
			}
			if z := find(v); z != nil {
				if err := h.space.Store64(loc, Poison|(v-z.base)); err == nil {
					h.nullified.Add(1)
				}
				s.mu.Lock()
				if _, ok := s.locs[loc]; ok {
					delete(s.locs, loc)
					h.tableSize.Add(-1)
				}
				s.mu.Unlock()
			}
		}
	}

	// All dangling pointers are gone; release the batch on the sweeper's
	// own substrate thread.
	for _, z := range batch {
		h.zombieBytes.Add(-int64(z.size))
		_ = h.je.Free(h.sweeperTid, z.base)
	}
	h.sweeps.Add(1)
	h.busyNanos.Add(int64(time.Since(start)))
}

// UsableSize implements alloc.Allocator.
func (h *Heap) UsableSize(addr uint64) uint64 { return h.je.UsableSize(addr) }

// Tick implements alloc.Allocator.
func (h *Heap) Tick(now uint64) { h.je.Tick(now) }

// Nullified returns how many dangling pointers were invalidated.
func (h *Heap) Nullified() uint64 { return h.nullified.Load() }

// Stats implements alloc.Allocator.
func (h *Heap) Stats() alloc.Stats {
	st := h.je.Stats()
	z := uint64(h.zombieBytes.Load())
	if st.Allocated >= z {
		st.Allocated -= z
	}
	st.Quarantined = z
	st.MetaBytes += uint64(h.tableSize.Load()) * 24
	st.Sweeps = h.sweeps.Load()
	st.SweeperCycles = uint64(h.busyNanos.Load())
	st.ReleasedFrees = st.Frees
	return st
}

// Shutdown implements alloc.Allocator. It is idempotent.
func (h *Heap) Shutdown() {
	h.stopOnce.Do(func() {
		if !h.cfg.Synchronous {
			close(h.stop)
			h.wg.Wait()
		}
		h.Sweep() // release anything still deferred
	})
}
