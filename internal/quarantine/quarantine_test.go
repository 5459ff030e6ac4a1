package quarantine

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"minesweeper/internal/mem"
)

// admit quarantines e the one way a free does: a one-entry ring's Push and
// Drain. It reports whether the drain accepted e (false for a duplicate).
func admit(q *Quarantine, e Entry) bool {
	tb := NewThreadBuffer(q, 1)
	tb.Push(e)
	return tb.Drain() == 0
}

// unmappedEntry returns the entry of an allocation whose pages were released
// while in quarantine.
func unmappedEntry(base, size uint64) Entry {
	e := NewEntry(base, size)
	e.SetUnmapped()
	return e
}

// release takes e out of the quarantine the one way a sweep does: a
// Releaser's batch, then its flush.
func release(q *Quarantine, e Entry) {
	r := q.NewReleaser()
	r.ReleaseBatch([]Entry{e})
	r.Flush()
}

func TestInsertRelease(t *testing.T) {
	q := New()
	e := NewEntry(0x1000, 64)
	if !admit(q, e) {
		t.Fatal("admit returned false")
	}
	if !q.Contains(0x1000) {
		t.Error("Contains = false after insert")
	}
	if q.Bytes() != 64 || q.Entries() != 1 {
		t.Errorf("Bytes/Entries = %d/%d, want 64/1", q.Bytes(), q.Entries())
	}
	release(q, e)
	if q.Contains(0x1000) {
		t.Error("Contains = true after release")
	}
	if q.Bytes() != 0 || q.Entries() != 0 {
		t.Errorf("Bytes/Entries = %d/%d, want 0/0", q.Bytes(), q.Entries())
	}
}

func TestDoubleFreeDeduplicated(t *testing.T) {
	q := New()
	if !admit(q, NewEntry(0x2000, 32)) {
		t.Fatal("first insert failed")
	}
	if admit(q, NewEntry(0x2000, 32)) {
		t.Fatal("duplicate insert succeeded")
	}
	if q.DoubleFrees() != 1 {
		t.Errorf("DoubleFrees = %d, want 1", q.DoubleFrees())
	}
	if q.Bytes() != 32 {
		t.Errorf("Bytes = %d, want 32 (duplicate must not double-count)", q.Bytes())
	}
	// A sweep has locked the entry in but not yet released it: a second
	// free is still a duplicate, and once the sweep releases the entry the
	// base is accepted again.
	locked := q.LockIn()
	if admit(q, NewEntry(0x2000, 32)) {
		t.Fatal("duplicate of a locked-in entry accepted before its release")
	}
	if q.DoubleFrees() != 2 {
		t.Errorf("DoubleFrees = %d, want 2", q.DoubleFrees())
	}
	rel := q.NewReleaser()
	rel.ReleaseBatch(locked)
	rel.Flush()
	if !admit(q, NewEntry(0x2000, 32)) {
		t.Error("insert after the locked-in entry's release failed")
	}
}

// TestAdjacentSmallBases: jemalloc's 8 B class puts two allocation bases 8 B
// apart. Both are admitted, each is de-duplicated on its own, and releasing
// one leaves the other quarantined. The membership hash keeps their home
// slots apart.
func TestAdjacentSmallBases(t *testing.T) {
	q := New()
	a := NewEntry(mem.HeapBase+0x10, 8)
	b := NewEntry(mem.HeapBase+0x18, 8)
	if !admit(q, a) || !admit(q, b) {
		t.Fatal("adjacent 8 B bases not both admitted")
	}
	if q.members.slot(a.Base) == q.members.slot(b.Base) {
		t.Errorf("bases %#x and %#x share home slot %d", a.Base, b.Base, q.members.slot(a.Base))
	}
	if admit(q, a) || admit(q, b) {
		t.Fatal("duplicate of an adjacent base accepted")
	}
	if q.DoubleFrees() != 2 || q.Entries() != 2 || q.Bytes() != 16 {
		t.Errorf("DoubleFrees/Entries/Bytes = %d/%d/%d, want 2/2/16", q.DoubleFrees(), q.Entries(), q.Bytes())
	}
	release(q, a)
	if q.Contains(a.Base) || !q.Contains(b.Base) {
		t.Errorf("after releasing %#x: Contains = %v/%v, want false/true", a.Base, q.Contains(a.Base), q.Contains(b.Base))
	}
	if !admit(q, a) {
		t.Error("released base not accepted again")
	}
	release(q, b)
	if !q.Contains(a.Base) || q.Contains(b.Base) {
		t.Errorf("after releasing %#x: Contains = %v/%v, want true/false", b.Base, q.Contains(a.Base), q.Contains(b.Base))
	}
}

func TestReinsertAfterRelease(t *testing.T) {
	// Once released (truly freed), the same base can be allocated and
	// freed again — the quarantine must accept it.
	q := New()
	e := NewEntry(0x3000, 16)
	admit(q, e)
	release(q, e)
	if !admit(q, NewEntry(0x3000, 16)) {
		t.Error("reinsert after release failed")
	}
}

func TestLockInEpochs(t *testing.T) {
	q := New()
	a := NewEntry(0x1000, 8)
	b := NewEntry(0x2000, 8)
	tb := NewThreadBuffer(q, 2)
	tb.Push(a)
	tb.Push(b)
	tb.Drain()

	locked := q.LockIn()
	if len(locked) != 2 {
		t.Fatalf("LockIn returned %d entries, want 2", len(locked))
	}
	// New frees during the sweep go to the next epoch.
	c := NewEntry(0x3000, 8)
	admit(q, c)
	if got := q.LockIn(); len(got) != 1 || got[0].Base != c.Base {
		t.Errorf("second LockIn = %v, want [c]", got)
	}
	if q.Epoch() != 2 {
		t.Errorf("Epoch = %d, want 2", q.Epoch())
	}
}

func TestFailedAccounting(t *testing.T) {
	q := New()
	e := NewEntry(0x1000, 100)
	admit(q, e)
	q.NoteFailed(&e)
	q.NoteFailed(&e) // idempotent
	if q.FailedBytes() != 100 {
		t.Errorf("FailedBytes = %d, want 100", q.FailedBytes())
	}
	release(q, e)
	if q.FailedBytes() != 0 {
		t.Errorf("FailedBytes after release = %d, want 0", q.FailedBytes())
	}
}

// TestUnmappedAccounting: an entry whose pages were released before it was
// admitted (free() decommits before the push) counts in the unmapped account
// only, on admission and on release.
func TestUnmappedAccounting(t *testing.T) {
	q := New()
	e := unmappedEntry(0x1000, 8192)
	admit(q, e)
	if q.Bytes() != 0 {
		t.Errorf("Bytes = %d, want 0 (unmapped excluded)", q.Bytes())
	}
	if q.UnmappedBytes() != 8192 {
		t.Errorf("UnmappedBytes = %d, want 8192", q.UnmappedBytes())
	}
	release(q, e)
	if q.UnmappedBytes() != 0 {
		t.Errorf("UnmappedBytes after release = %d, want 0", q.UnmappedBytes())
	}
}

func TestThreadBufferDrainPublishes(t *testing.T) {
	q := New()
	tb := NewThreadBuffer(q, 4)
	for i := 0; i < 3; i++ {
		if tb.Push(NewEntry(uint64(0x1000+i*16), 16)) {
			t.Fatalf("ring full after %d of 4 pushes", i+1)
		}
	}
	// Ring-resident entries are invisible everywhere until the drain.
	if q.Contains(0x1000) {
		t.Error("Contains = true for ring-resident entry")
	}
	if q.Bytes() != 0 || q.Entries() != 0 {
		t.Errorf("Bytes/Entries = %d/%d before drain, want 0/0", q.Bytes(), q.Entries())
	}
	if got := q.LockIn(); len(got) != 0 {
		t.Fatalf("pending published early: %d entries", len(got))
	}
	if !tb.Push(NewEntry(0x9000, 16)) {
		t.Fatal("Push at capacity did not report full")
	}
	tb.Drain()
	if !q.Contains(0x1000) || !q.Contains(0x9000) {
		t.Error("Contains = false after drain")
	}
	if q.Bytes() != 64 || q.Entries() != 4 {
		t.Errorf("Bytes/Entries = %d/%d after drain, want 64/4", q.Bytes(), q.Entries())
	}
	if got := q.LockIn(); len(got) != 4 {
		t.Errorf("LockIn after drain = %d entries, want 4", len(got))
	}
}

func TestThreadBufferExplicitDrain(t *testing.T) {
	q := New()
	tb := NewThreadBuffer(q, 0) // default cap
	tb.Push(NewEntry(0x1000, 16))
	tb.Drain()
	tb.Drain() // empty drain is a no-op
	if got := q.LockIn(); len(got) != 1 {
		t.Errorf("LockIn = %d entries, want 1", len(got))
	}
}

func TestThreadBufferDrainDeduplicates(t *testing.T) {
	q := New()
	tb := NewThreadBuffer(q, 8)
	tb.Push(NewEntry(0x1000, 32))
	tb.Push(NewEntry(0x1000, 32)) // double free, both still ring-resident
	tb.Push(NewEntry(0x2000, 16))
	tb.Drain()
	if q.DoubleFrees() != 1 {
		t.Errorf("DoubleFrees = %d, want 1", q.DoubleFrees())
	}
	if q.Bytes() != 48 || q.Entries() != 2 {
		t.Errorf("Bytes/Entries = %d/%d, want 48/2", q.Bytes(), q.Entries())
	}
	// A duplicate against an already-drained entry is also caught.
	tb.Push(NewEntry(0x2000, 16))
	tb.Drain()
	if q.DoubleFrees() != 2 {
		t.Errorf("DoubleFrees = %d after second drain, want 2", q.DoubleFrees())
	}
	if got := q.LockIn(); len(got) != 2 {
		t.Errorf("LockIn = %d entries, want 2 (duplicates must not be pending)", len(got))
	}
}

// TestDrainReturnsDuplicateCount: Drain reports how many ring entries lost
// the membership insert — duplicates within the ring and against entries an
// earlier drain published — and an empty drain reports none.
func TestDrainReturnsDuplicateCount(t *testing.T) {
	q := New()
	tb := NewThreadBuffer(q, 8)
	if got := tb.Drain(); got != 0 {
		t.Errorf("empty Drain = %d, want 0", got)
	}
	tb.Push(NewEntry(0x1000, 32))
	tb.Push(NewEntry(0x2000, 32))
	if got := tb.Drain(); got != 0 {
		t.Errorf("Drain of fresh bases = %d, want 0", got)
	}
	tb.Push(NewEntry(0x1000, 32)) // against a published entry
	tb.Push(NewEntry(0x3000, 32))
	tb.Push(NewEntry(0x3000, 32)) // within the ring
	tb.Push(NewEntry(0x2000, 32)) // against a published entry
	if got := tb.Drain(); got != 3 {
		t.Errorf("Drain = %d, want 3 duplicates", got)
	}
	if q.DoubleFrees() != 3 || q.Entries() != 3 {
		t.Errorf("DoubleFrees/Entries = %d/%d, want 3/3", q.DoubleFrees(), q.Entries())
	}
	// A one-entry ring attributes the count to the one free it holds.
	one := NewThreadBuffer(q, 1)
	if !one.Push(NewEntry(0x3000, 32)) {
		t.Fatal("one-entry ring not full after one Push")
	}
	if got := one.Drain(); got != 1 {
		t.Errorf("one-entry Drain of a duplicate = %d, want 1", got)
	}
}

func TestThreadBufferDrainUnmappedAccounting(t *testing.T) {
	q := New()
	tb := NewThreadBuffer(q, 4)
	e := unmappedEntry(0x4000, 8192) // flagged while ring-resident
	tb.Push(e)
	tb.Push(NewEntry(0x8000, 64))
	tb.Drain()
	if q.Bytes() != 64 {
		t.Errorf("Bytes = %d, want 64 (unmapped excluded)", q.Bytes())
	}
	if q.UnmappedBytes() != 8192 {
		t.Errorf("UnmappedBytes = %d, want 8192", q.UnmappedBytes())
	}
	release(q, e)
	if q.UnmappedBytes() != 0 {
		t.Errorf("UnmappedBytes after release = %d, want 0", q.UnmappedBytes())
	}
}

func TestThreadBufferWatermark(t *testing.T) {
	q := New()
	tb := NewThreadBuffer(q, 64)
	for i := 0; i < 47; i++ {
		tb.Push(NewEntry(uint64(0x1000+i*16), 16))
	}
	if tb.NeedsDrain() {
		t.Error("NeedsDrain = true below watermark")
	}
	tb.Push(NewEntry(0x9000, 16))
	if !tb.NeedsDrain() {
		t.Error("NeedsDrain = false at watermark (48 of 64)")
	}
	if tb.Occupancy() != 0 {
		t.Errorf("Occupancy = %d before publish, want 0 (stale)", tb.Occupancy())
	}
	tb.PublishOccupancy()
	if tb.Occupancy() != 48 {
		t.Errorf("Occupancy = %d after publish, want 48", tb.Occupancy())
	}
	tb.Drain()
	if tb.Occupancy() != 0 || tb.Len() != 0 {
		t.Errorf("Occupancy/Len = %d/%d after drain, want 0/0", tb.Occupancy(), tb.Len())
	}
}

// TestAppendEpochLockInRace is the regression test for the flush/epoch-advance
// race: Drain must stamp entries under the same critical section LockIn
// advances the epoch in, so a drain racing a lock-in can never publish an
// entry stamped with an epoch the sweep has already released. Run under -race
// this also exercises the quarantine lock's discipline itself.
func TestAppendEpochLockInRace(t *testing.T) {
	q := New()
	const pushers = 4
	const perPusher = 3000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < pushers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tb := NewThreadBuffer(q, 8)
			for i := 0; i < perPusher; i++ {
				if tb.Push(NewEntry(uint64(g*perPusher+i+1)*16, 16)) {
					tb.Drain()
				}
			}
			tb.Drain()
		}(g)
	}
	locked := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			batch := q.LockIn()
			epoch := q.Epoch() // > stamp of everything in batch
			for _, e := range batch {
				if e.epoch(epoch) >= epoch {
					t.Errorf("locked-in entry stamped epoch %d, released at epoch %d (stranded past release)", e.epoch(epoch), epoch)
					return
				}
			}
			for i := 1; i < len(batch); i++ {
				if batch[i].epoch(epoch) < batch[i-1].epoch(epoch) {
					t.Errorf("pending list epochs not monotonic: %d after %d", batch[i].epoch(epoch), batch[i-1].epoch(epoch))
					return
				}
			}
			locked += len(batch)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	// Everything drained before the final LockIn rounds must have been taken.
	final := q.LockIn()
	if total := locked + len(final); total != pushers*perPusher {
		t.Errorf("locked-in total = %d, want %d", total, pushers*perPusher)
	}
}

func TestRequeueLowersOldestPendingEpoch(t *testing.T) {
	q := New()
	a := NewEntry(0x1000, 8)
	admit(q, a)
	locked := q.LockIn() // epoch 0 -> 1; a carries epoch 0
	// New free lands at epoch 1, then the failed entry is requeued behind it.
	b := NewEntry(0x2000, 8)
	admit(q, b)
	q.Requeue(locked)
	if got := q.OldestPendingEpoch(); got != 0 {
		t.Errorf("OldestPendingEpoch = %d, want 0 (requeued entry is oldest)", got)
	}
	if age := q.Epoch() - q.OldestPendingEpoch(); age != 1 {
		t.Errorf("age = %d epochs, want 1", age)
	}
}

// TestRequeueKeepsOriginalEpoch: a failed entry requeued after several
// epochs keeps the epoch of its original append, so it alone drives the
// pending list's OldestPendingEpoch watermark — fresh appends behind it do
// not raise it, and once a lock-in takes the entry the watermark returns to
// the current epoch.
func TestRequeueKeepsOriginalEpoch(t *testing.T) {
	q := New()
	e := NewEntry(0x1000, 64)
	admit(q, e)
	locked := q.LockIn() // e carries epoch 0
	// Age the world a few epochs, then fail the entry back in behind a
	// fresh append.
	q.LockIn()
	q.LockIn()
	f := NewEntry(0x2000, 64)
	admit(q, f)
	q.Requeue(locked)
	if got := locked[0].epoch(q.Epoch()); got != 0 {
		t.Fatalf("requeued entry epoch = %d, want 0 (its original append)", got)
	}
	if got := q.OldestPendingEpoch(); got != 0 {
		t.Fatalf("OldestPendingEpoch = %d, want 0 (requeue preserves epoch)", got)
	}
	if age := q.Epoch() - q.OldestPendingEpoch(); age != 3 {
		t.Fatalf("age = %d epochs, want 3", age)
	}
	if got := q.LockIn(); len(got) != 2 {
		t.Fatalf("LockIn took %d entries, want 2 (the fresh append and the requeued one)", len(got))
	}
	if got := q.OldestPendingEpoch(); got != q.Epoch() {
		t.Fatalf("OldestPendingEpoch on empty = %d, want current epoch %d", got, q.Epoch())
	}
}

func TestConcurrentInsertRelease(t *testing.T) {
	q := New()
	const threads = 8
	const n = 2000
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tb := NewThreadBuffer(q, 16)
			for i := 0; i < n; i++ {
				if tb.Push(NewEntry(uint64(g*n+i+1)*16, 16)) {
					tb.Drain()
				}
			}
			tb.Drain()
		}(g)
	}
	wg.Wait()
	if q.Entries() != threads*n {
		t.Fatalf("Entries = %d, want %d", q.Entries(), threads*n)
	}
	locked := q.LockIn()
	if len(locked) != threads*n {
		t.Fatalf("LockIn = %d, want %d", len(locked), threads*n)
	}
	rel := q.NewReleaser()
	rel.ReleaseBatch(locked)
	rel.Flush()
	for _, e := range locked {
		if q.Contains(e.Base) {
			t.Fatalf("%#x still a member after release", e.Base)
		}
	}
	if q.Entries() != 0 || q.Bytes() != 0 {
		t.Errorf("Entries/Bytes = %d/%d after release all", q.Entries(), q.Bytes())
	}
}

// Property: for any interleaving of admitting mapped and unmapped entries,
// failing them and releasing them, on distinct bases, Bytes + UnmappedBytes
// equals the sum of live entry sizes, and FailedBytes the sum over failed
// ones.
func TestQuickAccounting(t *testing.T) {
	f := func(ops []uint8) bool {
		q := New()
		live := make(map[uint64]Entry)
		next := uint64(16)
		for _, op := range ops {
			switch op % 4 {
			case 0, 2: // admit a mapped (0) or an unmapped (2) entry
				e := NewEntry(next, uint64(op)*8+8)
				if op%4 == 2 {
					e.SetUnmapped()
				}
				next += 1 << 12
				if admit(q, e) {
					live[e.Base] = e
				}
			case 1: // fail one
				for b, e := range live {
					q.NoteFailed(&e)
					live[b] = e
					break
				}
			case 3: // release one
				for b, e := range live {
					release(q, e)
					delete(live, b)
					break
				}
			}
			var want, failed uint64
			for _, e := range live {
				want += e.Size()
				if e.Failed() {
					failed += e.Size()
				}
			}
			if q.Bytes()+q.UnmappedBytes() != want {
				return false
			}
			if q.FailedBytes() != failed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// BenchmarkInsertRelease times the drain and release layer per entry:
//
//   - eager: a one-entry ring drained and released one entry at a time;
//   - ring64: a default 64-entry ring, each lock-in released as one
//     256-entry ReleaseBatch, as a sweep worker does;
//   - par2: two goroutines draining 64-entry rings against one releaser
//     that locks in and releases what they published.
func BenchmarkInsertRelease(b *testing.B) {
	b.Run("eager", func(b *testing.B) {
		q := New()
		tb := NewThreadBuffer(q, 1)
		rel := q.NewReleaser()
		batch := make([]Entry, 1)
		for i := 0; i < b.N; i++ {
			e := NewEntry(uint64(i+1)*16, 64)
			tb.Push(e)
			tb.Drain()
			batch[0] = e
			rel.ReleaseBatch(batch)
		}
		rel.Flush()
	})
	b.Run("ring64", func(b *testing.B) {
		q := New()
		tb := NewThreadBuffer(q, DefaultBufferCap)
		rel := q.NewReleaser()
		for i := 0; i < b.N; i++ {
			if tb.Push(NewEntry(uint64(i+1)*16, 64)) {
				tb.Drain()
			}
			if (i+1)%releaseBatch == 0 {
				locked := q.LockIn()
				rel.ReleaseBatch(locked)
				q.Reclaim(locked)
			}
		}
		rel.Flush()
	})
	b.Run("par2", func(b *testing.B) {
		const drainers = 2
		q := New()
		var wg sync.WaitGroup
		for g := 0; g < drainers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				tb := NewThreadBuffer(q, DefaultBufferCap)
				for i := g; i < b.N; i += drainers {
					if tb.Push(NewEntry(uint64(i+1)*16, 64)) {
						tb.Drain()
					}
				}
				tb.Drain()
			}(g)
		}
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		rel := q.NewReleaser()
		releaseAll := func() int {
			locked := q.LockIn()
			for lo := 0; lo < len(locked); lo += releaseBatch {
				rel.ReleaseBatch(locked[lo:min(lo+releaseBatch, len(locked))])
			}
			q.Reclaim(locked)
			return len(locked)
		}
		for {
			select {
			case <-done:
				releaseAll()
				rel.Flush()
				return
			default:
			}
			if releaseAll() == 0 {
				runtime.Gosched()
			}
		}
	})
}

// releaseBatch is the sweep's release batch size (core's releaseBatchSize).
const releaseBatch = 256
