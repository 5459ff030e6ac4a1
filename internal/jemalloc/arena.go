package jemalloc

import (
	"sync"
	"sync/atomic"

	"minesweeper/internal/mem"
)

// arena owns extent allocation and recycling for one heap shard. Freed
// extents go onto per-page-count dirty lists; they are reused LIFO by new
// extent requests, and purged (decommitted via the extent hooks) either by
// decay — jemalloc's background aging of dirty memory — or by an explicit
// PurgeAll, which is what MineSweeper triggers after every sweep (§4.5).
//
// Every extent is one mem.Region whose owner is the extent, so a page's
// extent is found through the address space's page table no matter which
// shard owns it; everything else — the mutex, the dirty lists, the virtual
// clock — is per-shard, so extent churn on one shard never serialises against
// another.
type arena struct {
	mu    sync.Mutex
	space *mem.AddressSpace
	hooks ExtentHooks
	shard int32 // index stamped onto every extent this arena creates

	// dirty holds free extents by page count. Purged (decommitted)
	// extents stay listed: their VA is "retained" and can be recommitted,
	// like jemalloc's retained extents.
	dirty      map[int][]*Extent
	dirtyBytes uint64 // committed bytes on dirty lists

	decayCycles uint64 // dirty extents older than this get purged on Tick
	now         uint64 // last observed virtual time

	nExtents int
	nPages   int // pages of every extent ever mapped
	purges   atomic.Uint64
}

func newArena(space *mem.AddressSpace, hooks ExtentHooks, shard int32, decayCycles uint64) *arena {
	return &arena{
		space:       space,
		hooks:       hooks,
		shard:       shard,
		dirty:       make(map[int][]*Extent),
		decayCycles: decayCycles,
	}
}

// allocExtent returns a committed extent of exactly `pages` pages, reusing a
// dirty extent when one is available. Recycled extents that were never purged
// retain their previous contents (as real recycled memory does); purged or
// fresh extents read as zero.
func (a *arena) allocExtent(pages int) (*Extent, error) {
	a.mu.Lock()
	if list := a.dirty[pages]; len(list) > 0 {
		e := list[len(list)-1]
		a.dirty[pages] = list[:len(list)-1]
		if e.committed {
			a.dirtyBytes -= e.size
		}
		a.mu.Unlock()
		if !e.committed {
			if err := a.hooks.Commit(a.space, e.base, e.size); err != nil {
				return nil, err
			}
			e.committed = true
		}
		return e, nil
	}
	a.nExtents++
	a.nPages += pages
	a.mu.Unlock()

	r, err := a.space.Map(mem.KindHeap, uint64(pages)*mem.PageSize, true)
	if err != nil {
		return nil, err
	}
	e := &Extent{
		base:      r.Base(),
		size:      r.Size(),
		shard:     a.shard,
		committed: true,
	}
	r.SetOwner(e) // publishes the fields above to lock-free lookups
	return e, nil
}

// freeExtent places e on the dirty list for later reuse or purging.
func (a *arena) freeExtent(e *Extent) {
	e.state.Store(extStateFree)
	a.mu.Lock()
	a.freeExtentLocked(e)
	a.mu.Unlock()
}

// freeExtents places a batch of extents on the dirty lists under one lock
// acquisition — the release path hands back every slab emptied by a sweep
// this way instead of taking the arena lock per slab.
func (a *arena) freeExtents(es []*Extent) {
	if len(es) == 0 {
		return
	}
	for _, e := range es {
		e.state.Store(extStateFree)
	}
	a.mu.Lock()
	for _, e := range es {
		a.freeExtentLocked(e)
	}
	a.mu.Unlock()
}

func (a *arena) freeExtentLocked(e *Extent) {
	e.dirtyStamp = a.now
	a.dirty[e.pages()] = append(a.dirty[e.pages()], e)
	if e.committed {
		a.dirtyBytes += e.size
	}
}

// collectPurgeLocked removes every committed dirty extent matching keep's
// complement — i.e. extents for which shouldPurge returns true — from the
// dirty lists and returns them. Caller holds a.mu. The removed extents are
// invisible to allocExtent until finishPurge re-lists them, so the caller can
// decommit them outside the critical section without racing a reuse.
func (a *arena) collectPurgeLocked(shouldPurge func(*Extent) bool) []*Extent {
	var batch []*Extent
	for pages, list := range a.dirty {
		kept := list[:0]
		for _, e := range list {
			if e.committed && shouldPurge(e) {
				batch = append(batch, e)
				a.dirtyBytes -= e.size
			} else {
				kept = append(kept, e)
			}
		}
		for i := len(kept); i < len(list); i++ {
			list[i] = nil
		}
		a.dirty[pages] = kept
	}
	return batch
}

// purgeExtents decommits batch (collected by collectPurgeLocked) with no lock
// held — extent hooks may be user-supplied and slow, and holding a.mu across
// them would stall every concurrent malloc slow path — then re-lists the now
// uncommitted extents so their VA stays reusable.
func (a *arena) purgeExtents(batch []*Extent) {
	if len(batch) == 0 {
		return
	}
	for _, e := range batch {
		// Decommit cannot fail for in-range extents; an error here would
		// mean a substrate bug.
		if err := a.hooks.Decommit(a.space, e.base, e.size); err != nil {
			panic("jemalloc: decommit failed: " + err.Error())
		}
		e.committed = false
	}
	a.mu.Lock()
	for _, e := range batch {
		a.dirty[e.pages()] = append(a.dirty[e.pages()], e)
	}
	a.mu.Unlock()
	a.purges.Add(1)
}

// Tick advances virtual time and purges dirty extents older than the decay
// deadline, modelling jemalloc's decay-based purging. The decommit hook calls
// happen outside the arena critical section.
func (a *arena) Tick(now uint64) {
	a.mu.Lock()
	a.now = now
	var batch []*Extent
	if a.decayCycles != 0 {
		batch = a.collectPurgeLocked(func(e *Extent) bool {
			return now-e.dirtyStamp >= a.decayCycles
		})
	}
	a.mu.Unlock()
	a.purgeExtents(batch)
}

// PurgeAll decommits every dirty extent — the enhanced cleanup MineSweeper
// triggers after each sweep. The extents are unhooked from the dirty lists
// under the lock and decommitted after it is released, so a post-sweep purge
// never blocks a concurrent allocation slow path on the hook calls.
func (a *arena) PurgeAll() {
	a.mu.Lock()
	batch := a.collectPurgeLocked(func(*Extent) bool { return true })
	a.mu.Unlock()
	if len(batch) == 0 {
		a.purges.Add(1)
		return
	}
	a.purgeExtents(batch)
}

// arenaStats is an arena's extent accounting, or its sum over the shards.
type arenaStats struct {
	dirtyBytes   uint64 // committed bytes on dirty lists
	dirtyExtents int
	extents      int // extents ever mapped
	pages        int // pages of those extents
}

func (a *arena) stats() arenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := arenaStats{dirtyBytes: a.dirtyBytes, extents: a.nExtents, pages: a.nPages}
	for _, list := range a.dirty {
		st.dirtyExtents += len(list)
	}
	return st
}
