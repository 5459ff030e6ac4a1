package events

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// The self-describing binary dump format (DESIGN.md §16). Layout:
//
//	header:  magic "MSEV" | u16 version | u8 cause | u8 reserved
//	         u64 epoch unix-nanos | uvarint since-nanos | uvarint taken-nanos
//	kinds:   uvarint count, then per kind: u8 value | uvarint len | name
//	rings:   uvarint count, then per ring:
//	           uvarint len | name | uvarint event count
//	           events, varint-delta encoded:
//	             uvarint delta-seq   (first event: absolute seq)
//	             uvarint delta-nanos (first event: nanos - since-nanos)
//	             u8 kind | uvarint arg0 | uvarint arg1
//
// Per-ring seqs and timestamps are monotonically non-decreasing, so deltas
// are small and the stream compresses an event to a handful of bytes. The
// kind table makes dumps self-describing: a reader built against an older
// kind set still decodes and labels everything it finds.

const dumpMagic = "MSEV"

// DumpVersion is the current dump format version.
const DumpVersion = 1

// ErrCorruptDump reports a malformed dump.
var ErrCorruptDump = errors.New("events: corrupt dump")

// WriteTo serialises the dump. It implements io.WriterTo.
func (d *Dump) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	bw := bufio.NewWriter(cw)
	if _, err := bw.WriteString(dumpMagic); err != nil {
		return cw.n, err
	}
	var hdr [4 + 8]byte
	binary.LittleEndian.PutUint16(hdr[0:2], DumpVersion)
	hdr[2] = byte(d.Cause)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(d.Epoch.UnixNano()))
	bw.Write(hdr[:])
	writeUvarint(bw, d.SinceNanos)
	writeUvarint(bw, d.TakenNanos)

	// Kind table: a decoded dump's own, so re-encoding keeps its labels;
	// this build's otherwise.
	if d.Kinds != nil {
		writeUvarint(bw, uint64(len(d.Kinds)))
		for _, kn := range d.Kinds {
			bw.WriteByte(byte(kn.Kind))
			writeString(bw, kn.Name)
		}
	} else {
		writeUvarint(bw, uint64(kindCount))
		for k := Kind(0); k < kindCount; k++ {
			bw.WriteByte(byte(k))
			writeString(bw, k.String())
		}
	}

	writeUvarint(bw, uint64(len(d.Threads)))
	for _, t := range d.Threads {
		writeString(bw, t.Name)
		writeUvarint(bw, uint64(len(t.Events)))
		prevSeq, prevNanos := uint64(0), d.SinceNanos
		for _, e := range t.Events {
			if e.Seq < prevSeq {
				return cw.n, fmt.Errorf("events: ring %q events out of order (seq %d after %d)", t.Name, e.Seq, prevSeq)
			}
			// Timestamps are clamped monotone per ring: two emitters racing
			// for adjacent slots (the rare foreign-writer case) can publish
			// a slightly earlier clock reading under a later seq, and the
			// delta encoding — like any consumer of the stream — wants
			// seq order and time order to agree.
			nanos := e.Nanos
			if nanos < prevNanos {
				nanos = prevNanos
			}
			writeUvarint(bw, e.Seq-prevSeq)
			writeUvarint(bw, nanos-prevNanos)
			bw.WriteByte(byte(e.Kind))
			writeUvarint(bw, e.Arg0)
			writeUvarint(bw, e.Arg1)
			prevSeq, prevNanos = e.Seq, nanos
		}
	}
	err := bw.Flush()
	return cw.n, err
}

// countWriter exists only so WriteTo can report bytes written through the
// bufio layer.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// KindName maps an on-disk kind value through a dump's kind table.
type KindName struct {
	Kind Kind
	Name string
}

// ReadDump deserialises a dump written by WriteTo. The dump keeps its kind
// table in Kinds, so the renderers label kinds this build does not know.
func ReadDump(r io.Reader) (*Dump, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 4+4+8)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptDump, err)
	}
	if string(head[:4]) != dumpMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptDump)
	}
	if v := binary.LittleEndian.Uint16(head[4:6]); v != DumpVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptDump, v)
	}
	d := &Dump{
		Cause: TripCause(head[6]),
		Epoch: time.Unix(0, int64(binary.LittleEndian.Uint64(head[8:16]))),
	}
	var err error
	if d.SinceNanos, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptDump, err)
	}
	if d.TakenNanos, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptDump, err)
	}

	nkinds, err := binary.ReadUvarint(br)
	if err != nil || nkinds > 256 {
		return nil, fmt.Errorf("%w: kind table", ErrCorruptDump)
	}
	d.Kinds = make([]KindName, 0, nkinds)
	for i := uint64(0); i < nkinds; i++ {
		kv, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorruptDump, err)
		}
		name, err := readString(br)
		if err != nil {
			return nil, err
		}
		d.Kinds = append(d.Kinds, KindName{Kind: Kind(kv), Name: name})
	}

	nrings, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptDump, err)
	}
	for i := uint64(0); i < nrings; i++ {
		name, err := readString(br)
		if err != nil {
			return nil, err
		}
		nev, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorruptDump, err)
		}
		t := ThreadEvents{Name: name, Events: make([]Event, 0, min(nev, 1<<20))}
		prevSeq, prevNanos := uint64(0), d.SinceNanos
		for j := uint64(0); j < nev; j++ {
			var e Event
			ds, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorruptDump, err)
			}
			dn, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorruptDump, err)
			}
			kb, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorruptDump, err)
			}
			if e.Arg0, err = binary.ReadUvarint(br); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorruptDump, err)
			}
			if e.Arg1, err = binary.ReadUvarint(br); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorruptDump, err)
			}
			e.Seq = prevSeq + ds
			e.Nanos = prevNanos + dn
			if e.Seq < prevSeq || e.Nanos < prevNanos {
				return nil, fmt.Errorf("%w: ring %q seq or time overflows", ErrCorruptDump, name)
			}
			e.Kind = Kind(kb)
			prevSeq, prevNanos = e.Seq, e.Nanos
			t.Events = append(t.Events, e)
		}
		d.Threads = append(d.Threads, t)
	}
	return d, nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func readString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil || n > 1<<16 {
		return "", fmt.Errorf("%w: string length", ErrCorruptDump)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", fmt.Errorf("%w: %v", ErrCorruptDump, err)
	}
	return string(b), nil
}
