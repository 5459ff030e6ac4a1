// Package ring is the lock-free record ring shared by the telemetry layer
// (one telemetry.SweepRecord per sweep) and the control plane (one
// control.Decision per adjustment): a fixed-capacity buffer of the last N
// records, each stamped with its sequence number. It is a leaf package
// because telemetry imports control; a ring in either would be a cycle.
package ring

import "sync/atomic"

// DefaultCap is the default number of records a ring retains.
const DefaultCap = 256

// Ring is a lock-free ring buffer of the last N records of type T. Writers
// claim a slot with one atomic add and publish an immutable record with one
// atomic pointer store; readers never block writers.
type Ring[T any] struct {
	slots []atomic.Pointer[T]
	next  atomic.Uint64
	seq   func(*T) *uint64
}

// New returns a ring retaining the last capN records, rounded up to a power
// of two (DefaultCap if capN <= 0). seq locates a record's sequence-number
// field, which Push stamps and Snapshot orders by.
func New[T any](capN int, seq func(*T) *uint64) *Ring[T] {
	if capN <= 0 {
		capN = DefaultCap
	}
	n := 1
	for n < capN {
		n <<= 1
	}
	return &Ring[T]{slots: make([]atomic.Pointer[T], n), seq: seq}
}

// Push appends v, overwriting the oldest record once the ring is full, and
// returns the record's sequence number (starting at 1). The stored copy is
// private to the ring, so callers may reuse v.
func (r *Ring[T]) Push(v T) uint64 {
	seq := r.next.Add(1)
	*r.seq(&v) = seq
	r.slots[(seq-1)&uint64(len(r.slots)-1)].Store(&v)
	return seq
}

// Len returns the number of records currently retained.
func (r *Ring[T]) Len() int {
	n := r.next.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Total returns the number of records ever pushed.
func (r *Ring[T]) Total() uint64 { return r.next.Load() }

// Snapshot returns the retained records, oldest first. Records pushed while
// snapshotting may be included or not; each returned record is internally
// consistent (publication is a single pointer store).
func (r *Ring[T]) Snapshot() []T {
	hi := r.next.Load()
	lo := uint64(0)
	if hi > uint64(len(r.slots)) {
		lo = hi - uint64(len(r.slots))
	}
	out := make([]T, 0, hi-lo)
	for s := lo; s < hi; s++ {
		p := r.slots[s&uint64(len(r.slots)-1)].Load()
		if p == nil {
			continue // claimed but not yet published
		}
		// A slot lapped by a concurrent writer holds a newer record; keep
		// only the record this slot held at sequence s+1 so the result
		// stays ordered oldest-first.
		if *r.seq(p) == s+1 {
			out = append(out, *p)
		}
	}
	return out
}
