package quarantine

import (
	"reflect"
	"slices"
	"testing"

	"minesweeper/internal/mem"
)

// TestEntryIsPointerFree keeps the entry model honest: an Entry is the 16 B
// value MetaBytes charges for, and none of its fields can hold a pointer,
// so the rings, the pending list and the locked-in slices stay invisible to
// the garbage collector.
func TestEntryIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(Entry{})
	if typ.Size() != 16 {
		t.Errorf("Entry is %d B, want 16", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.String, reflect.Struct, reflect.Array:
			t.Errorf("Entry.%s is a %s; entries must stay pointer-free scalars", f.Name, f.Type.Kind())
		}
	}
}

// TestMetaBytesPerEntry: MetaBytes charges each quarantined allocation its
// 16 B entry plus a 16 B amortised membership key, 32 B in all.
func TestMetaBytesPerEntry(t *testing.T) {
	q := New()
	for i := uint64(1); i <= 3; i++ {
		admit(q, NewEntry(i<<12, 64))
	}
	if got := q.MetaBytes(); got != 3*32 {
		t.Errorf("MetaBytes = %d for 3 entries, want %d (32 B each)", got, 3*32)
	}
}

// TestEntryFlagsAtLargestSize: at the largest size the heap span allows,
// every combination of the two flags and an epoch stamp whose bits are all
// set leaves the size intact, and each reads back through a drain, a lock-in,
// NoteFailed, Requeue and the release accounting.
func TestEntryFlagsAtLargestSize(t *testing.T) {
	const size = mem.HeapLimit - mem.HeapBase
	for _, unmapped := range []bool{false, true} {
		for _, failed := range []bool{false, true} {
			q := New()
			q.epoch.Store(stampMask) // every stamp bit set at the drain
			e := NewEntry(mem.HeapBase, size)
			if unmapped {
				e.SetUnmapped()
			}
			admit(q, e)
			locked := q.LockIn()
			if len(locked) != 1 {
				t.Fatalf("LockIn took %d entries, want 1", len(locked))
			}
			got := &locked[0]
			if failed {
				q.NoteFailed(got)
			}
			if got.Base != mem.HeapBase || got.Size() != size ||
				got.Unmapped() != unmapped || got.Failed() != failed ||
				got.epoch(q.Epoch()) != stampMask {
				t.Fatalf("unmapped=%v failed=%v: read back base %#x size %#x unmapped %v failed %v epoch %d",
					unmapped, failed, got.Base, got.Size(), got.Unmapped(), got.Failed(), got.epoch(q.Epoch()))
			}
			q.Requeue(locked)
			if ep := q.OldestPendingEpoch(); ep != stampMask {
				t.Errorf("OldestPendingEpoch = %d after requeue, want %d", ep, stampMask)
			}
			if failed && q.FailedBytes() != size {
				t.Errorf("FailedBytes = %d, want %d", q.FailedBytes(), size)
			}
			release(q, q.LockIn()[0])
			if q.Bytes() != 0 || q.UnmappedBytes() != 0 || q.FailedBytes() != 0 || q.Entries() != 0 {
				t.Errorf("unmapped=%v failed=%v: accounts %d/%d/%d/%d after release, want 0",
					unmapped, failed, q.Bytes(), q.UnmappedBytes(), q.FailedBytes(), q.Entries())
			}
		}
	}
}

// TestRequeueAcrossStampWrap: an entry drained just before the epoch's low
// stamp bits wrap keeps its epoch when it is requeued after the wrap.
func TestRequeueAcrossStampWrap(t *testing.T) {
	q := New()
	q.epoch.Store(stampMask)
	admit(q, NewEntry(0x1000, 64))
	locked := q.LockIn() // epoch 2^stampBits: the stamp bits read 0
	q.LockIn()
	q.Requeue(locked)
	if got := q.OldestPendingEpoch(); got != stampMask {
		t.Errorf("OldestPendingEpoch = %d, want %d", got, uint64(stampMask))
	}
	if age := q.Epoch() - q.OldestPendingEpoch(); age != 2 {
		t.Errorf("age = %d epochs, want 2", age)
	}
}

// TestOldestPendingEpochScript runs a fixed script of drains, lock-ins,
// requeues and reclaims and checks Epoch and OldestPendingEpoch after each
// step against the values the 32 B entry, which stored the epoch in a word
// of its own, gave on the same script. The script fails an entry at one
// sweep and releases it at the next while a younger entry fails in its
// place: an age kept per lock-in, which charges every requeued entry with
// the oldest epoch of its batch, would climb there by one each sweep.
func TestOldestPendingEpochScript(t *testing.T) {
	q := New()
	var got []uint64
	note := func() { got = append(got, q.Epoch(), q.OldestPendingEpoch()) }
	// sweep locks in, fails the entries numbered in fail, releases the
	// rest, requeues the failures and hands the batch back.
	sweep := func(fail ...uint64) {
		locked := q.LockIn()
		note()
		var fails, rel []Entry
		for i := range locked {
			if slices.Contains(fail, locked[i].Base>>12) {
				q.NoteFailed(&locked[i])
				fails = append(fails, locked[i])
			} else {
				rel = append(rel, locked[i])
			}
		}
		r := q.NewReleaser()
		r.ReleaseBatch(rel)
		r.Flush()
		q.Requeue(fails)
		note()
		q.Reclaim(locked)
		note()
	}
	admitN := func(ns ...uint64) {
		for _, n := range ns {
			admit(q, NewEntry(n<<12, 64))
		}
	}
	note()
	admitN(1, 2)
	note()
	sweep(1)
	admitN(3)
	note()
	sweep(3) // 1 released, 3 fails at its first sweep
	admitN(4)
	sweep(4) // 3 released, 4 fails at its first sweep
	sweep(4) // 4 fails again
	admitN(5, 6)
	sweep(5) // 4 released, 5 fails
	// Two lock-ins, the second of an empty list, before the first one's
	// failure returns behind a fresh drain.
	locked := q.LockIn()
	note()
	q.LockIn()
	note()
	admitN(7)
	for i := range locked {
		q.NoteFailed(&locked[i])
	}
	q.Requeue(locked)
	note()
	q.Reclaim(locked)
	sweep()
	want := []uint64{
		0, 0, 0, 0, // empty, then 1 and 2 pending at epoch 0
		1, 1, 1, 0, 1, 0, // sweep(1)
		1, 0, // 3 pending
		2, 2, 2, 1, 2, 1, // sweep(3)
		3, 3, 3, 2, 3, 2, // sweep(4)
		4, 4, 4, 2, 4, 2, // sweep(4)
		5, 5, 5, 4, 5, 4, // sweep(5)
		6, 6, 7, 7, 7, 4, // two lock-ins, then 5's requeue behind 7
		8, 8, 8, 8, 8, 8, // sweep()
	}
	if !slices.Equal(got, want) {
		t.Errorf("(Epoch, OldestPendingEpoch) after each step:\n got %v\nwant %v", got, want)
	}
}
