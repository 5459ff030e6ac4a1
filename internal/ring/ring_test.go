package ring_test

import (
	"sync"
	"testing"

	"minesweeper/internal/control"
	"minesweeper/internal/ring"
	"minesweeper/internal/telemetry"
)

// stamp marks complete records: every writer stores it, so a snapshot
// record without it was read half-built.
const stamp = 0xC0FFEE

// recordType is one record type the ring carries. new builds a ring through
// the owning package's constructor; make builds record i carrying the stamp.
type recordType[T comparable] struct {
	new     func(capN int) *ring.Ring[T]
	make    func(i int) T
	seq     func(*T) *uint64
	stamped func(T) bool
}

var sweepRecords = recordType[telemetry.SweepRecord]{
	new: func(capN int) *ring.Ring[telemetry.SweepRecord] { return telemetry.NewRegistry(capN).Ring() },
	make: func(i int) telemetry.SweepRecord {
		return telemetry.SweepRecord{TotalNanos: int64(i), PagesScanned: stamp}
	},
	seq:     func(r *telemetry.SweepRecord) *uint64 { return &r.Seq },
	stamped: func(r telemetry.SweepRecord) bool { return r.PagesScanned == stamp },
}

var decisions = recordType[control.Decision]{
	new: func(capN int) *ring.Ring[control.Decision] {
		return control.NewPlane(control.Config{RingCap: capN}).Ring()
	},
	make: func(i int) control.Decision {
		return control.Decision{Level: control.Level(i % 3), In: control.Inputs{RSS: uint64(i), Released: stamp}}
	},
	seq:     func(d *control.Decision) *uint64 { return &d.Seq },
	stamped: func(d control.Decision) bool { return d.In.Released == stamp },
}

// TestRing runs every ring property over both record types the repository
// stores in rings.
func TestRing(t *testing.T) {
	t.Run("SweepRecord", func(t *testing.T) { testRing(t, sweepRecords) })
	t.Run("Decision", func(t *testing.T) { testRing(t, decisions) })
}

func testRing[T comparable](t *testing.T, rt recordType[T]) {
	t.Run("CapRounding", func(t *testing.T) {
		for _, c := range []struct{ capN, want int }{{5, 8}, {0, ring.DefaultCap}} {
			r := rt.new(c.capN)
			for i := 0; i < 2*ring.DefaultCap; i++ {
				r.Push(rt.make(i))
			}
			if got := r.Len(); got != c.want {
				t.Errorf("cap %d retains %d records, want %d", c.capN, got, c.want)
			}
		}
	})

	t.Run("WrapAndOrder", func(t *testing.T) {
		r := rt.new(8)
		for i := 0; i < 20; i++ {
			if seq := r.Push(rt.make(i)); seq != uint64(i+1) {
				t.Fatalf("push %d returned seq %d, want %d", i, seq, i+1)
			}
		}
		if r.Total() != 20 || r.Len() != 8 {
			t.Fatalf("total %d len %d, want 20/8", r.Total(), r.Len())
		}
		snap := r.Snapshot()
		if len(snap) != 8 {
			t.Fatalf("snapshot length %d, want 8", len(snap))
		}
		for i, got := range snap {
			// Record j was pushed as seq j+1; the newest 8 survive, oldest first.
			want := rt.make(12 + i)
			*rt.seq(&want) = uint64(13 + i)
			if got != want {
				t.Errorf("snapshot[%d] = %+v, want %+v", i, got, want)
			}
		}
	})

	t.Run("Concurrent", func(t *testing.T) {
		r := rt.new(16)
		const writers, per = 4, 2000
		var wg, rdWg sync.WaitGroup
		stop := make(chan struct{})
		rdWg.Add(1)
		go func() {
			defer rdWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				for i := range snap {
					if i > 0 && *rt.seq(&snap[i]) <= *rt.seq(&snap[i-1]) {
						t.Errorf("snapshot out of order: %d then %d", *rt.seq(&snap[i-1]), *rt.seq(&snap[i]))
						return
					}
					if !rt.stamped(snap[i]) {
						t.Errorf("torn record at seq %d: %+v", *rt.seq(&snap[i]), snap[i])
						return
					}
				}
			}
		}()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					r.Push(rt.make(w*per + i))
				}
			}(w)
		}
		wg.Wait()
		close(stop)
		rdWg.Wait()
		if r.Total() != writers*per {
			t.Fatalf("total %d, want %d", r.Total(), writers*per)
		}
	})
}
