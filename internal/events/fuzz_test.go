package events

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"
)

// FuzzReadDump exercises the MSEV parser — it reads dumps from files and
// over HTTP — with arbitrary bytes: it must never panic, must report every
// rejection as ErrCorruptDump, and anything it accepts must re-encode to a
// dump that decodes equal.
func FuzzReadDump(f *testing.F) {
	// Seed corpus: a dump captured from a real recorder, and near-misses.
	rec := NewRecorder(64, time.Minute)
	sw, th := rec.Ring("sweeper"), rec.Ring("thread-0")
	sw.Emit(KindSweepBegin, 1, 40)
	sw.Emit(KindMarkBegin, 0, 0)
	th.Emit(KindDrain, 8, 512)
	sw.Emit(KindMarkEnd, 12, 49152)
	sw.Emit(KindSweepEnd, 40, 0)
	th.Emit(KindAlloc, 64, 90)
	var buf bytes.Buffer
	if _, err := rec.Capture(TripManual).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(dumpMagic))
	f.Add([]byte{})
	// One unnamed ring after an empty kind table: a count past MaxInt64
	// (once a negative slice capacity), and deltas that wrap the clock.
	ring := func(since, nev uint64, deltas ...uint64) []byte {
		b := append([]byte(nil), valid[:16]...)
		for _, v := range append([]uint64{since, 0, 0, 1, 0, nev}, deltas...) {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	f.Add(ring(0, 1<<63))
	f.Add(append(ring(1<<63, 1, 1, 1<<63), byte(KindSweepBegin), 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDump(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptDump) {
				t.Fatalf("rejection not reported as ErrCorruptDump: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if _, err := d.WriteTo(&out); err != nil {
			t.Fatalf("accepted dump failed to encode: %v", err)
		}
		back, err := ReadDump(&out)
		if err != nil {
			t.Fatalf("re-encoded dump failed to decode: %v", err)
		}
		if !reflect.DeepEqual(back, d) {
			t.Fatalf("round trip changed the dump:\n  read:      %+v\n  re-encoded: %+v", d, back)
		}
	})
}
