// Package alloc defines the allocator interface shared by every memory
// manager in this repository: the JeMalloc-style baseline, MineSweeper's
// drop-in layer, and the MarkUs and FFMalloc comparators. Mutators (package
// sim) program against this interface, so any workload can run under any
// scheme — the simulated equivalent of swapping LD_PRELOADed allocators under
// an unmodified SPEC binary.
package alloc

import "errors"

// ThreadID identifies a registered mutator thread. Allocators use it to find
// the thread's cache (jemalloc tcache, MineSweeper's thread-local quarantine
// buffer).
type ThreadID int32

// Allocation errors.
var (
	// ErrOutOfMemory reports virtual-address-space or configured-limit
	// exhaustion.
	ErrOutOfMemory = errors.New("alloc: out of memory")
	// ErrInvalidFree reports a free of an address that is not the base of
	// a live allocation.
	ErrInvalidFree = errors.New("alloc: invalid free")
	// ErrDoubleFree reports a second free of the same allocation. Schemes
	// with quarantines absorb double frees idempotently instead of
	// returning this (the paper: calls to free() while a dangling pointer
	// exists are "idempotent from each other").
	ErrDoubleFree = errors.New("alloc: double free")
)

// Stats is a cross-scheme statistics snapshot. Fields not applicable to a
// scheme are zero.
type Stats struct {
	// Allocated is live application bytes (malloc'd, not yet freed by the
	// program). Quarantined bytes are not included.
	Allocated uint64
	// Quarantined is bytes the program has freed that the scheme has not
	// yet released to the allocator.
	Quarantined uint64
	// QuarantinedUnmapped is the portion of Quarantined whose physical
	// pages have been released (MineSweeper §4.2).
	QuarantinedUnmapped uint64
	// Active is bytes in slabs/extents currently backing allocations,
	// including internal fragmentation.
	Active uint64
	// MetaBytes estimates allocator metadata overhead (out-of-line
	// structures, shadow maps).
	MetaBytes uint64
	// DirtyBytes is committed bytes sitting on the allocator's dirty/free
	// lists, awaiting reuse or purge (jemalloc's "dirty" pages).
	DirtyBytes uint64
	// Mallocs and Frees count API calls that succeeded.
	Mallocs uint64
	Frees   uint64
	// Sweeps counts completed sweep/mark passes.
	Sweeps uint64
	// FailedFrees counts quarantined allocations that a sweep could not
	// release because a (possible) dangling pointer was found.
	FailedFrees uint64
	// ReleasedFrees counts quarantined allocations released by sweeps.
	ReleasedFrees uint64
	// DoubleFrees counts de-duplicated double frees.
	DoubleFrees uint64
	// SweeperCycles is virtual CPU time consumed by background sweeper
	// threads (the paper's "additional threaded CPU usage").
	SweeperCycles uint64
	// STWCycles is virtual time mutators spent stopped for stop-the-world
	// re-scans (mostly-concurrent mode only).
	STWCycles uint64
	// PauseNanos is wall-clock nanoseconds mutators spent paused in Malloc
	// because the quarantine overwhelmed the sweeper (§5.7).
	PauseNanos uint64
	// BytesSwept is total bytes examined by marking passes.
	BytesSwept uint64
	// Purges counts allocator cleanup passes (decay or post-sweep).
	Purges uint64
}

// Allocation describes a live allocation found by a substrate lookup.
type Allocation struct {
	// Base is the allocation's base address.
	Base uint64
	// Size is the usable size in bytes.
	Size uint64
	// Large reports an extent-backed (page-granular) allocation, eligible
	// for quarantine page unmapping.
	Large bool
}

// Substrate is the allocator-side interface MineSweeper's drop-in layer
// hooks into. The paper integrates with jemalloc's public API plus small
// extensions (§3.2) and notes the approach ports to other allocators (§7's
// Scudo implementation); any allocator providing these operations can sit
// under the quarantine.
type Substrate interface {
	Allocator
	// Lookup returns the live allocation containing addr (for slab-style
	// substrates) or exactly based at addr.
	Lookup(addr uint64) (Allocation, bool)
	// FreeBatch frees a batch of allocations by address: errs[i] (which
	// must have len(addrs) slots) receives what Free(tid, addrs[i]) would
	// have returned, so per-item double-free detection survives batching.
	// Substrates with lock-protected internal structure amortise their
	// locks across the batch (jemalloc groups the batch by arena shard and
	// size class); others may simply loop, via FreeBatchSerial. The batch
	// is a performance contract only: the end state must be what the same
	// frees performed one at a time would have produced.
	FreeBatch(tid ThreadID, addrs []uint64, errs []error)
	// DecommitExtent releases the physical pages of a live large
	// allocation, leaving it allocated (§4.2).
	DecommitExtent(base uint64) error
	// PurgeAll returns all dirty physical memory to the OS now (§4.5).
	PurgeAll()
	// AllocatedBytes returns live usable bytes.
	AllocatedBytes() uint64
}

// Allocator is the interface every memory-management scheme implements.
type Allocator interface {
	// RegisterThread creates per-thread allocator state and returns the
	// thread's ID. Every mutator registers before its first Malloc.
	RegisterThread() ThreadID
	// UnregisterThread flushes and retires the thread's caches.
	UnregisterThread(tid ThreadID)
	// Malloc allocates size bytes and returns the base address. The
	// returned memory's contents are unspecified (as with C malloc).
	Malloc(tid ThreadID, size uint64) (uint64, error)
	// Free deallocates the allocation whose base address is addr. Under
	// quarantining schemes the memory is retained until proven safe.
	Free(tid ThreadID, addr uint64) error
	// UsableSize returns the usable size of the live allocation at base
	// addr, or 0 if addr is not a live allocation base.
	UsableSize(addr uint64) uint64
	// Tick advances the allocator's notion of virtual time (decay-based
	// purging, background housekeeping). now is in virtual cycles.
	Tick(now uint64)
	// Stats returns a statistics snapshot.
	Stats() Stats
	// Shutdown stops background machinery (sweeper threads) and performs
	// final housekeeping. The allocator must not be used afterwards.
	Shutdown()
}

// FreeBatchSerial implements the FreeBatch contract by looping Free — the
// straightforward fallback for substrates whose free path has no batchable
// shared structure (dlmalloc's in-band headers, Scudo's per-chunk registry).
func FreeBatchSerial(s Substrate, tid ThreadID, addrs []uint64, errs []error) {
	for i, addr := range addrs {
		errs[i] = s.Free(tid, addr)
	}
}

// Name returns a short human-readable scheme name for an allocator, used in
// reports. Allocators implement fmt.Stringer for this.
type Name interface{ String() string }

// PointerObserver is optionally implemented by schemes that track pointer
// stores (the paper's pointer-nullification and reference-counting systems:
// DangSan, pSweeper, CRCount — §6.4, §6.6). When a scheme implements it, the
// simulator invokes NoteStore after every successful mutator store, passing
// the overwritten and stored values. This models the compiler
// instrumentation those systems add to every pointer write — and, exactly as
// in the real systems, the cost of the callback lands on the mutator.
type PointerObserver interface {
	NoteStore(tid ThreadID, addr, old, new uint64)
}
