// Package quarantine implements MineSweeper's quarantine: the set of
// allocations the program has freed but that cannot yet be proven free of
// dangling pointers (§3). It provides:
//
//   - a sharded membership set keyed by allocation base, the paper's "shadow
//     map of entries" that de-duplicates double frees so that calls to free()
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
package quarantine

import (
	"sync"
	"sync/atomic"
)

// Entry describes one quarantined allocation: the paper's address and size
// (§3) plus an epoch and two flags. It is a plain, pointer-free 32 B
// value: the thread rings, the pending list, a sweep's locked-in slice and a
// worker's release batch each hold their own copy, and the membership set
// holds only the base. Nothing points at an entry, so nothing recycles one,
// and the garbage collector never scans the slices that hold them. The
// substrate finds the allocation again from Base when the sweep frees it.
type Entry struct {
	// Base is the allocation's base address.
	Base uint64
	// Size is the allocation's usable size in bytes.
	Size uint64
	// Epoch is the sweep epoch in which the entry joined the global pending
	// list (stamped by appendPending, under the pending lock, so it is
	// always consistent with the epoch advance in LockIn).
	Epoch uint64
	// Unmapped records that the allocation's physical pages were released
	// while in quarantine (§4.2).
	Unmapped bool
	// Failed records that at least one sweep found a (possible) dangling
	// pointer to this allocation.
	Failed bool
}

// setShards is the membership-set shard count. Eight (not the 64 of earlier
// revisions) because membership traffic now arrives in batches — ring drains
// insert a whole ring and sweep workers remove releaseBatchSize entries at a
// time — and batching only amortises the shard lock when a batch lands several
// entries per shard. At 64 shards a 48-entry drain averaged under one entry
// per touched shard (one lock round-trip each, no better than per-entry
// locking); at 8 it averages six.
const (
	setShardBits = 3
	setShards    = 1 << setShardBits
)

// shard is one slice of the membership set: an open-addressing hash table
// with linear probing and backward-shift deletion, keyed by Entry.Base.
// Every free pays one insert (in its ring's drain) and the sweep one remove
// per allocation, so the table avoids the runtime map's hashing and bucket
// machinery — on the malloc/free microbenchmark the generic map was ~20% of
// total CPU.
//
// The set holds keys only, in one pointer-free array, so a probe chain walks
// one cache line of uint64s; the entries themselves live on the pending list.
// Max load is 50%, keeping unsuccessful probes (what every insert of a fresh
// base pays) near two slots.
type shard struct {
	mu   sync.Mutex
	keys []uint64 // power-of-two; 0 = empty slot (0 is never a heap base)
	n    int      // occupied slots
}

const shardMinSize = 64

// mix is the multiplicative hash shared by shard selection (top bits) and
// slot selection (folded bits). Allocation bases are at least 16-byte
// aligned, so the low bits are dropped first.
func mix(base uint64) uint64 {
	return (base >> 4) * 0x9E3779B97F4A7C15
}

func (s *shard) slot(base uint64) int {
	h := mix(base)
	return int((h ^ h>>29) & uint64(len(s.keys)-1))
}

// lookup returns the index holding base, or -1 and the insertion point.
func (s *shard) lookup(base uint64) (at, free int) {
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

func (s *shard) insert(base uint64) bool {
	if s.keys == nil {
		s.keys = make([]uint64, shardMinSize)
	} else if 2*(s.n+1) > len(s.keys) {
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

func (s *shard) remove(base uint64) {
	if s.keys == nil {
		return
	}
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

func (s *shard) grow() {
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
	shards [setShards]shard

	// The pending side: one list, locked in whole by every sweep. pendMu
	// also orders every appendPending's epoch stamp against LockIn's
	// epoch advance (see appendPending).
	pendMu  sync.Mutex
	pending []Entry
	// oldest is the epoch of the oldest pending entry (meaningful only
	// while pending is non-empty). Appends stamp the current epoch, so
	// they never lower it; Requeue can, since failed entries keep the
	// epoch of their original append.
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
func New() *Quarantine { return &Quarantine{} }

// shardIdx selects the membership shard for a base from the hash's top bits
// (the slot index uses the folded low bits, so the two stay independent).
func shardIdx(base uint64) int {
	return int(mix(base) >> (64 - setShardBits))
}

func (q *Quarantine) shardFor(base uint64) *shard {
	return &q.shards[shardIdx(base)]
}

// Contains reports whether base is currently quarantined.
func (q *Quarantine) Contains(base uint64) bool {
	s := q.shardFor(base)
	s.mu.Lock()
	ok := false
	if s.keys != nil {
		at, _ := s.lookup(base)
		ok = at >= 0
	}
	s.mu.Unlock()
	return ok
}

// appendPending adds a drain's membership winners to the pending list for
// the next lock-in, stamping each with the current epoch. The stamp happens
// under the pending lock — the same lock LockIn advances the epoch under — so
// a batch appended concurrently with a lock-in is stamped consistently with
// the side of the swap it landed on: entries the sweep took carry the
// pre-advance epoch, entries that missed it carry the post-advance epoch. (An earlier
// revision stamped at insert time and advanced the epoch outside the lock,
// so a flush racing the advance could publish entries whose recorded epoch
// was already released — the age gauge then under-reported forever and a
// governor steering on it never escalated.)
func (q *Quarantine) appendPending(batch []Entry) {
	if len(batch) == 0 {
		return
	}
	q.pendMu.Lock()
	ep := q.epoch.Load()
	if len(q.pending) == 0 {
		q.oldest = ep
	}
	n := len(q.pending)
	q.pending = append(q.pending, batch...)
	for i := n; i < len(q.pending); i++ {
		q.pending[i].Epoch = ep
	}
	q.pendMu.Unlock()
}

// LockIn atomically takes the whole pending list and starts a new epoch. The
// returned entries are the sweep's candidate set; entries quarantined after
// LockIn go to the next sweep. The swap and the epoch advance happen under
// one critical section so no appendPending can interleave between them (see
// appendPending).
func (q *Quarantine) LockIn() []Entry {
	q.pendMu.Lock()
	locked := q.pending
	q.pending = q.lockedSpare[:0]
	q.lockedSpare = nil
	q.epoch.Add(1)
	q.pendMu.Unlock()
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
	q.pendMu.Lock()
	if cap(buf) > cap(q.lockedSpare) {
		q.lockedSpare = buf[:0]
	}
	q.pendMu.Unlock()
}

// Requeue returns failed entries to the pending list so future sweeps retry
// them. Unlike appendPending it preserves each entry's original epoch — the
// age of a stubborn failed free is measured from when it first went pending —
// and lowers the oldest-epoch watermark accordingly.
func (q *Quarantine) Requeue(failed []Entry) {
	if len(failed) == 0 {
		return
	}
	q.pendMu.Lock()
	for _, e := range failed {
		if len(q.pending) == 0 || e.Epoch < q.oldest {
			q.oldest = e.Epoch
		}
	}
	q.pending = append(q.pending, failed...)
	q.pendMu.Unlock()
}

// NoteFailed accounts an entry's first failed free (§3.2: failed frees are
// subtracted from both sides of the trigger comparison). e is the sweep's
// locked-in copy; the flag it sets travels with it to Requeue.
func (q *Quarantine) NoteFailed(e *Entry) {
	if e.Failed {
		return
	}
	e.Failed = true
	q.failedBytes.Add(int64(e.Size))
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
	// groups is ReleaseBatch's shard-grouping scratch, reused across batches
	// so a worker's whole run allocates it once.
	groups [setShards][]uint64
}

// NewReleaser returns a Releaser for one worker's chunk. Not safe for
// concurrent use; each worker owns one and must call Flush when done.
func (q *Quarantine) NewReleaser() Releaser { return Releaser{q: q} }

// ReleaseBatch releases a whole batch: membership removal is grouped by shard
// so the batch costs one shard-lock round-trip per touched shard (at most
// setShards) instead of one per entry, and the accounting is deferred to
// Flush.
func (r *Releaser) ReleaseBatch(entries []Entry) {
	if len(entries) == 0 {
		return
	}
	for i := range r.groups {
		r.groups[i] = r.groups[i][:0]
	}
	for i := range entries {
		e := &entries[i]
		si := shardIdx(e.Base)
		r.groups[si] = append(r.groups[si], e.Base)
		if e.Unmapped {
			r.unmappedBytes -= int64(e.Size)
		} else {
			r.bytes -= int64(e.Size)
		}
		if e.Failed {
			r.failedBytes -= int64(e.Size)
		}
	}
	r.n += int64(len(entries))
	for si, g := range r.groups {
		if len(g) == 0 {
			continue
		}
		s := &r.q.shards[si]
		s.mu.Lock()
		for _, base := range g {
			s.remove(base)
		}
		s.mu.Unlock()
	}
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
	q.pendMu.Lock()
	defer q.pendMu.Unlock()
	// The tracked watermark, not pending[0].Epoch: Requeue appends failed
	// entries (which keep old epochs) behind newer appends, so the list is
	// not epoch-sorted.
	if len(q.pending) == 0 {
		return q.epoch.Load()
	}
	return q.oldest
}

// ForEachPending calls fn for a snapshot of the pending list (the entries
// the next LockIn would take).
func (q *Quarantine) ForEachPending(fn func(e Entry)) {
	q.pendMu.Lock()
	snap := append([]Entry(nil), q.pending...)
	q.pendMu.Unlock()
	for _, e := range snap {
		fn(e)
	}
}

// MetaBytes estimates the quarantine's metadata footprint.
func (q *Quarantine) MetaBytes() uint64 {
	// The 32 B Entry value on the pending list + its 8 B membership key at
	// <=50% load, so 16 B amortised.
	return clamp(q.entries.Load()) * (32 + 16)
}

func clamp(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// ThreadBuffer is one mutator thread's private quarantine ring. free()'s
// enqueue (Push) touches only thread-local state — no atomics, no shared
// locks — and the ring drains in bulk: one Drain inserts the whole ring into
// the sharded membership set grouping entries by shard (one lock round-trip
// per touched shard), publishes the byte/entry accounting as one set of
// atomic adds, and appends the survivors to the global pending list under a
// single pending-lock acquisition.
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

	// Drain scratch, reused across drains.
	batch  []Entry          // membership winners, handed to appendPending
	groups [setShards][]int // ring indices grouped by shard
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
		q:     q,
		ring:  make([]Entry, 0, capN),
		cap:   capN,
		wm:    wm,
		batch: make([]Entry, 0, capN),
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

// Drain publishes the whole ring: membership inserts grouped by shard,
// double-free losers counted in one add and dropped, byte/entry accounting
// published as one set of atomic adds, and the winners appended to the
// pending list in a single append. Accounting is published before the
// pending append so a sweep that locks the batch in can never release an
// entry whose bytes were not yet counted. It returns how many entries it
// rejected as duplicates.
func (b *ThreadBuffer) Drain() int {
	if len(b.ring) == 0 {
		b.occ.Store(0)
		return 0
	}
	q := b.q
	for i := range b.groups {
		b.groups[i] = b.groups[i][:0]
	}
	for i := range b.ring {
		si := shardIdx(b.ring[i].Base)
		b.groups[si] = append(b.groups[si], i)
	}
	winners := b.batch[:0]
	dups := 0
	for si, g := range b.groups {
		if len(g) == 0 {
			continue
		}
		s := &q.shards[si]
		s.mu.Lock()
		for _, i := range g {
			if s.insert(b.ring[i].Base) {
				winners = append(winners, b.ring[i])
			} else {
				dups++
			}
		}
		s.mu.Unlock()
	}
	var mapped, unmapped int64
	for i := range winners {
		if winners[i].Unmapped {
			unmapped += int64(winners[i].Size)
		} else {
			mapped += int64(winners[i].Size)
		}
	}
	if mapped != 0 {
		q.bytes.Add(mapped)
	}
	if unmapped != 0 {
		q.unmappedBytes.Add(unmapped)
	}
	if len(winners) != 0 {
		q.entries.Add(int64(len(winners)))
	}
	if dups != 0 {
		q.doubleFrees.Add(uint64(dups))
	}
	q.appendPending(winners)
	b.batch = winners[:0]
	b.ring = b.ring[:0]
	b.occ.Store(0)
	return dups
}
