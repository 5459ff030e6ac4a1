// Package quarantine implements MineSweeper's quarantine: the set of
// allocations the program has freed but that cannot yet be proven free of
// dangling pointers (§3). It provides:
//
//   - a membership set keyed by allocation base, the paper's "shadow map of
//     entries" that de-duplicates double frees so that calls to free()
//     while a dangling pointer exists are idempotent;
//   - a global pending list with epoch lock-in: a sweep atomically takes the
//     entries "already in quarantine when it starts"; anything freed during
//     the sweep waits for the next one (§4.3);
//   - thread-private quarantine rings that make free()'s enqueue entirely
//     thread-local and publish membership, accounting, and pending-list
//     appends in bulk drains (contribution (c) in §1.1). A ring is the one
//     way in: ThreadBuffer.Push, then Drain. A one-entry ring is the eager
//     case, where every free drains at once and the caller learns from
//     Drain whether it was a duplicate (the paper's debug mode);
//   - batched release: a Releaser is the one way out. It removes a batch
//     from the membership set before the substrate frees it and publishes
//     the byte accounting once per worker;
//   - byte accounting with the paper's two adjustments: failed frees are
//     subtracted from both sides of the sweep trigger (§3.2), and unmapped
//     allocations do not count towards the standard threshold (§4.2).
//
// The membership set and the pending list share one mutex: a drain, a
// lock-in, a requeue, a release batch and a Contains each take it once.
package quarantine

import (
	"sync"
	"sync/atomic"

	"minesweeper/internal/mem"
)

// Entry describes one quarantined allocation in two words: the paper's
// address and size (§3). It is a plain, pointer-free 16 B value: the thread
// rings, the pending list, a sweep's locked-in slice and a worker's release
// batch each hold their own copy, and the membership set holds only the
// base. Nothing points at an entry, so nothing recycles one, and the garbage
// collector never scans the slices that hold them. The substrate finds the
// allocation again from Base when the sweep frees it.
//
// No allocation is larger than the heap span (mem.HeapLimit - mem.HeapBase,
// 1 TiB), so a size needs the low sizeBits bits of its word. The bits above
// carry the rest of the entry's state: the epoch stamp, then the Unmapped
// and Failed flags. Size masks them off.
type Entry struct {
	// Base is the allocation's base address.
	Base uint64
	// size is the usable size in bytes (low sizeBits bits), the epoch stamp
	// and the two flags.
	size uint64
}

// The layout of Entry's second word.
const (
	sizeBits = 41
	sizeMask = 1<<sizeBits - 1

	// The stamp is the low stampBits bits of the sweep epoch in which the
	// entry joined the pending list (stamped by Drain under the quarantine
	// lock, so it is always consistent with the epoch advance in LockIn). A
	// failed entry keeps it across Requeue, so quarantine age is measured
	// from when the allocation first went pending. Ages are taken modulo
	// 2^stampBits (over two million sweeps).
	stampShift = sizeBits
	stampBits  = 62 - sizeBits
	stampMask  = 1<<stampBits - 1

	// unmappedBit records that the allocation's physical pages were
	// released while in quarantine (§4.2).
	unmappedBit = 1 << 62
	// failedBit records that at least one sweep found a (possible) dangling
	// pointer to the allocation.
	failedBit = 1 << 63
)

// The largest allocation the heap span holds must fit in sizeBits bits: a
// compile error here means the flags would overwrite a size.
const _ = uint64(sizeMask - (mem.HeapLimit - mem.HeapBase))

// NewEntry returns the entry for an allocation of size bytes at base, with
// no flags set. The size is at most the heap span.
func NewEntry(base, size uint64) Entry {
	if size > sizeMask {
		panic("quarantine: entry size exceeds the heap span")
	}
	return Entry{Base: base, size: size}
}

// Size returns the allocation's usable size in bytes.
func (e Entry) Size() uint64 { return e.size & sizeMask }

// Unmapped reports whether the allocation's physical pages were released
// while in quarantine (§4.2).
func (e Entry) Unmapped() bool { return e.size&unmappedBit != 0 }

// SetUnmapped records that the allocation's pages were released.
func (e *Entry) SetUnmapped() { e.size |= unmappedBit }

// Failed reports whether at least one sweep found a (possible) dangling
// pointer to the allocation.
func (e Entry) Failed() bool { return e.size&failedBit != 0 }

// epoch returns the epoch the entry's stamp names: the latest epoch no later
// than now whose low stampBits bits equal the stamp.
func (e Entry) epoch(now uint64) uint64 {
	return now - (now-e.size>>stampShift)&stampMask
}

// set is the membership set: an open-addressing hash table with linear
// probing and backward-shift deletion, keyed by Entry.Base. Every free pays
// one insert (in its ring's drain) and the sweep one remove per allocation,
// so the table avoids the runtime map's hashing and bucket machinery — on
// the malloc/free microbenchmark the generic map was ~20% of total CPU.
//
// The set holds keys only, in one pointer-free array, so a probe chain walks
// one cache line of uint64s; the entries themselves live on the pending list.
// Max load is 50%, keeping unsuccessful probes (what every insert of a fresh
// base pays) near two slots.
type set struct {
	keys []uint64 // power-of-two, never empty; 0 = empty slot (0 is never a heap base)
	n    int      // occupied slots
}

const setMinSize = 64

// slot is a base's home slot: a multiplicative hash folded into the table's
// index bits. Allocation bases are at least 8-byte aligned (jemalloc's
// smallest class puts two bases 8 B apart), so the hash drops 3 low bits.
func (s *set) slot(base uint64) int {
	h := (base >> 3) * 0x9E3779B97F4A7C15
	return int((h ^ h>>29) & uint64(len(s.keys)-1))
}

// lookup returns the index holding base, or -1 and the insertion point.
func (s *set) lookup(base uint64) (at, free int) {
	i := s.slot(base)
	for {
		k := s.keys[i]
		if k == 0 {
			return -1, i
		}
		if k == base {
			return i, -1
		}
		i = (i + 1) & (len(s.keys) - 1)
	}
}

func (s *set) insert(base uint64) bool {
	if 2*(s.n+1) > len(s.keys) {
		s.grow()
	}
	at, free := s.lookup(base)
	if at >= 0 {
		return false
	}
	s.keys[free] = base
	s.n++
	return true
}

func (s *set) remove(base uint64) {
	at, _ := s.lookup(base)
	if at < 0 {
		return
	}
	// Backward-shift deletion: slide the probe chain left so no tombstones
	// accumulate and lookups stay short at any load factor. i is the
	// current vacancy; j scans the rest of the chain.
	mask := len(s.keys) - 1
	i := at
	for j := at; ; {
		j = (j + 1) & mask
		k := s.keys[j]
		if k == 0 {
			break
		}
		// The element at j may fill the vacancy iff its home slot is not
		// inside (i, j].
		if home := s.slot(k); (j-home)&mask >= (j-i)&mask {
			s.keys[i] = k
			i = j
		}
	}
	s.keys[i] = 0
	s.n--
}

func (s *set) grow() {
	old := s.keys
	s.keys = make([]uint64, 2*len(old))
	for _, k := range old {
		if k == 0 {
			continue
		}
		_, free := s.lookup(k)
		s.keys[free] = k
	}
}

// Quarantine is the global quarantine state. All methods are safe for
// concurrent use.
type Quarantine struct {
	// mu guards the membership set and the pending side. Because a drain
	// inserts into the set and appends to the pending list in the same
	// critical section LockIn advances the epoch in, every pending entry is
	// a member and carries the epoch of the side of the swap it landed on.
	mu      sync.Mutex
	members set
	// The pending side: one list, locked in whole by every sweep.
	pending []Entry
	// oldest is the epoch of the oldest pending entry (meaningful only
	// while pending is non-empty). Drains stamp the current epoch, so
	// they never lower it; Requeue can, since failed entries keep the
	// stamp of their original drain.
	oldest uint64
	// lockedSpare is a locked-in slice the sweep handed back (Reclaim);
	// the next LockIn makes it the new pending list, so steady-state
	// sweeps swap two backing arrays instead of regrowing one.
	lockedSpare []Entry
	epoch       atomic.Uint64

	bytes         atomic.Int64 // mapped quarantined bytes (excludes unmapped)
	unmappedBytes atomic.Int64
	failedBytes   atomic.Int64
	entries       atomic.Int64
	doubleFrees   atomic.Uint64
}

// New returns an empty quarantine.
func New() *Quarantine {
	return &Quarantine{members: set{keys: make([]uint64, setMinSize)}}
}

// Contains reports whether base is currently quarantined.
func (q *Quarantine) Contains(base uint64) bool {
	q.mu.Lock()
	at, _ := q.members.lookup(base)
	q.mu.Unlock()
	return at >= 0
}

// LockIn atomically takes the whole pending list and starts a new epoch. The
// returned entries are the sweep's candidate set; entries quarantined after
// LockIn go to the next sweep. The swap and the epoch advance happen under
// the lock every drain stamps its entries under, so an entry the sweep took
// carries the pre-advance epoch and one that missed it the post-advance
// epoch. (An earlier revision stamped at insert time and advanced the epoch
// outside the lock, so a drain racing the advance could publish entries
// whose recorded epoch was already released — the age gauge then
// under-reported forever and a governor steering on it never escalated.)
func (q *Quarantine) LockIn() []Entry {
	q.mu.Lock()
	locked := q.pending
	q.pending = q.lockedSpare[:0]
	q.lockedSpare = nil
	q.epoch.Add(1)
	q.mu.Unlock()
	return locked
}

// Reclaim donates a slice previously returned by LockIn back to the
// quarantine once the sweep is done with it, so steady-state sweeps reuse
// its backing array instead of regrowing from nil every epoch. The entries
// must already be released or requeued.
func (q *Quarantine) Reclaim(buf []Entry) {
	if cap(buf) == 0 {
		return
	}
	q.mu.Lock()
	if cap(buf) > cap(q.lockedSpare) {
		q.lockedSpare = buf[:0]
	}
	q.mu.Unlock()
}

// Requeue returns failed entries to the pending list so future sweeps retry
// them. Unlike a drain it preserves each entry's original epoch — the age of
// a stubborn failed free is measured from when it first went pending — and
// lowers the oldest-epoch watermark accordingly.
func (q *Quarantine) Requeue(failed []Entry) {
	if len(failed) == 0 {
		return
	}
	q.mu.Lock()
	now := q.epoch.Load()
	for _, e := range failed {
		if ep := e.epoch(now); len(q.pending) == 0 || ep < q.oldest {
			q.oldest = ep
		}
	}
	q.pending = append(q.pending, failed...)
	q.mu.Unlock()
}

// NoteFailed accounts an entry's first failed free (§3.2: failed frees are
// subtracted from both sides of the trigger comparison). e is the sweep's
// locked-in copy; the flag it sets travels with it to Requeue.
func (q *Quarantine) NoteFailed(e *Entry) {
	if e.Failed() {
		return
	}
	e.size |= failedBit
	q.failedBytes.Add(int64(e.Size()))
}

// Releaser batches one sweep worker's (or one MarkUs collection's)
// releases. Membership removal happens per batch (membership must be exact
// before the substrate free), but the byte/entry accounting is deferred to
// Flush, turning up to three atomic adds per release into one set per
// worker.
type Releaser struct {
	q                                 *Quarantine
	bytes, unmappedBytes, failedBytes int64
	n                                 int64
}

// NewReleaser returns a Releaser for one worker's chunk. Not safe for
// concurrent use; each worker owns one and must call Flush when done.
func (q *Quarantine) NewReleaser() Releaser { return Releaser{q: q} }

// ReleaseBatch releases a whole batch: its membership removals cost one
// round-trip of the quarantine lock, and the accounting is deferred to
// Flush.
func (r *Releaser) ReleaseBatch(entries []Entry) {
	if len(entries) == 0 {
		return
	}
	for _, e := range entries {
		size := int64(e.Size())
		if e.Unmapped() {
			r.unmappedBytes -= size
		} else {
			r.bytes -= size
		}
		if e.Failed() {
			r.failedBytes -= size
		}
	}
	r.n += int64(len(entries))
	q := r.q
	q.mu.Lock()
	for i := range entries {
		q.members.remove(entries[i].Base)
	}
	q.mu.Unlock()
}

// Flush publishes the accumulated accounting.
func (r *Releaser) Flush() {
	q := r.q
	if r.bytes != 0 {
		q.bytes.Add(r.bytes)
	}
	if r.unmappedBytes != 0 {
		q.unmappedBytes.Add(r.unmappedBytes)
	}
	if r.failedBytes != 0 {
		q.failedBytes.Add(r.failedBytes)
	}
	if r.n != 0 {
		q.entries.Add(-r.n)
	}
	r.bytes, r.unmappedBytes, r.failedBytes, r.n = 0, 0, 0, 0
}

// Bytes returns mapped quarantined bytes (unmapped entries excluded).
func (q *Quarantine) Bytes() uint64 { return clamp(q.bytes.Load()) }

// UnmappedBytes returns bytes of quarantined allocations whose pages were
// released.
func (q *Quarantine) UnmappedBytes() uint64 { return clamp(q.unmappedBytes.Load()) }

// FailedBytes returns bytes of entries that have failed at least one sweep.
func (q *Quarantine) FailedBytes() uint64 { return clamp(q.failedBytes.Load()) }

// Entries returns the number of quarantined allocations.
func (q *Quarantine) Entries() uint64 { return clamp(q.entries.Load()) }

// DoubleFrees returns the number of de-duplicated double frees.
func (q *Quarantine) DoubleFrees() uint64 { return q.doubleFrees.Load() }

// Epoch returns the current sweep epoch.
func (q *Quarantine) Epoch() uint64 { return q.epoch.Load() }

// OldestPendingEpoch returns the quarantine epoch of the oldest entry still
// on the pending list, or the current epoch when the list is empty. The
// difference Epoch() - OldestPendingEpoch() is how many sweeps the most
// stubborn pending entry has been waiting (e.g. a failed free being retried),
// which telemetry exports as quarantine age.
func (q *Quarantine) OldestPendingEpoch() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	// The tracked watermark, not pending[0]'s stamp: Requeue appends
	// failed entries (which keep old stamps) behind newer appends, so the
	// list is not epoch-sorted.
	if len(q.pending) == 0 {
		return q.epoch.Load()
	}
	return q.oldest
}

// ForEachPending calls fn for a snapshot of the pending list (the entries
// the next LockIn would take).
func (q *Quarantine) ForEachPending(fn func(e Entry)) {
	q.mu.Lock()
	snap := append([]Entry(nil), q.pending...)
	q.mu.Unlock()
	for _, e := range snap {
		fn(e)
	}
}

// MetaBytes estimates the quarantine's metadata footprint.
func (q *Quarantine) MetaBytes() uint64 {
	// The 16 B Entry value on the pending list + its 8 B membership key at
	// <=50% load, so 16 B amortised.
	return clamp(q.entries.Load()) * (16 + 16)
}

func clamp(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// ThreadBuffer is one mutator thread's private quarantine ring. free()'s
// enqueue (Push) touches only thread-local state — no atomics, no shared
// locks — and the ring drains in bulk: one Drain takes the quarantine lock
// once, inserts the whole ring into the membership set, appends the
// survivors to the global pending list, and publishes the byte/entry
// accounting as one set of atomic adds.
//
// The deferral is visible: until a ring entry is drained it is absent from
// Contains, from the byte accounts, and from double-free de-duplication
// (a duplicate waits in the ring and is detected — counted and dropped —
// when the drain's membership insert loses). The lag is bounded by the ring
// capacity. A capacity of 1 is the eager case: the owner drains after every
// Push, so the entry is visible at once and Drain's duplicate count belongs
// to that one free.
//
// Not safe for concurrent use; each thread owns one.
type ThreadBuffer struct {
	q    *Quarantine
	ring []Entry // fixed backing of cap entries; len is the occupancy
	cap  int
	wm   int          // Drain watermark for the amortised tick (see NeedsDrain)
	occ  atomic.Int32 // occupancy published at drains/ticks for gauges (stale in between)
}

// DefaultBufferCap is the default thread-ring capacity.
const DefaultBufferCap = 64

// NewThreadBuffer returns a ring of capacity capN (DefaultBufferCap if
// capN <= 0) draining to q.
func NewThreadBuffer(q *Quarantine, capN int) *ThreadBuffer {
	if capN <= 0 {
		capN = DefaultBufferCap
	}
	wm := 3 * capN / 4
	if wm < 1 {
		wm = 1
	}
	return &ThreadBuffer{
		q:    q,
		ring: make([]Entry, 0, capN),
		cap:  capN,
		wm:   wm,
	}
}

// Push enqueues an entry on the ring — a single thread-local append, no
// shared state — and reports whether the ring is now full, in which case the
// caller must Drain before the next Push. (A Push past capacity is tolerated
// — the ring grows — but loses the fixed-footprint guarantee.)
func (b *ThreadBuffer) Push(e Entry) bool {
	b.ring = append(b.ring, e)
	return len(b.ring) >= b.cap
}

// Len returns the ring occupancy.
func (b *ThreadBuffer) Len() int { return len(b.ring) }

// NeedsDrain reports whether the ring has reached its drain watermark (3/4 of
// capacity). Callers amortising drains over an op tick drain at the watermark
// so the ring never fills between ticks.
func (b *ThreadBuffer) NeedsDrain() bool { return len(b.ring) >= b.wm }

// Occupancy returns the occupancy last published by a Drain or
// PublishOccupancy — readable from any thread, at most one ring of staleness.
func (b *ThreadBuffer) Occupancy() int { return int(b.occ.Load()) }

// PublishOccupancy publishes the current occupancy for cross-thread readers
// (gauges). Owner-thread only, like Push.
func (b *ThreadBuffer) PublishOccupancy() { b.occ.Store(int32(len(b.ring))) }

// Drain publishes the whole ring in one critical section of the quarantine
// lock: each entry's membership insert, and for each winner an epoch stamp
// and a pending-list append; double-free losers are counted in one add and
// dropped. The byte/entry accounting is published as one set of atomic adds
// before the lock is released, so a sweep that locks the batch in can never
// release an entry whose bytes were not yet counted. It returns how many
// entries it rejected as duplicates.
func (b *ThreadBuffer) Drain() int {
	if len(b.ring) == 0 {
		b.occ.Store(0)
		return 0
	}
	q := b.q
	var mapped, unmapped int64
	dups := 0
	q.mu.Lock()
	ep := q.epoch.Load()
	if len(q.pending) == 0 {
		q.oldest = ep
	}
	stamp := (ep & stampMask) << stampShift
	for _, e := range b.ring {
		if !q.members.insert(e.Base) {
			dups++
			continue
		}
		e.size = e.size&^(stampMask<<stampShift) | stamp
		q.pending = append(q.pending, e)
		if e.Unmapped() {
			unmapped += int64(e.Size())
		} else {
			mapped += int64(e.Size())
		}
	}
	if mapped != 0 {
		q.bytes.Add(mapped)
	}
	if unmapped != 0 {
		q.unmappedBytes.Add(unmapped)
	}
	if won := len(b.ring) - dups; won != 0 {
		q.entries.Add(int64(won))
	}
	q.mu.Unlock()
	if dups != 0 {
		q.doubleFrees.Add(uint64(dups))
	}
	b.ring = b.ring[:0]
	b.occ.Store(0)
	return dups
}
