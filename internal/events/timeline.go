package events

import (
	"fmt"
	"io"
	"sort"
	"time"

	"minesweeper/internal/metrics"
)

// timelineRow is one merged line of the text timeline: an instant, or a
// span with its resolved duration.
type timelineRow struct {
	nanos  uint64
	thread string
	depth  int
	name   string
	dur    int64 // -1 for instants and unclosed spans
	detail string
}

// detailFor renders an event's payload for the timeline's detail column.
func detailFor(e Event) string {
	switch e.Kind {
	case KindSweepBegin:
		return fmt.Sprintf("trigger=%d locked=%d", e.Arg0, e.Arg1)
	case KindSweepEnd, KindRecycleEnd:
		return fmt.Sprintf("released=%d retained=%d", e.Arg0, e.Arg1)
	case KindMarkEnd:
		return fmt.Sprintf("pages=%d %s", e.Arg0, metrics.FmtMiB(e.Arg1))
	case KindPrecleanEnd:
		return fmt.Sprintf("pages=%d round=%d", e.Arg0, e.Arg1)
	case KindStwBegin, KindStwEnd:
		return fmt.Sprintf("dirty-pg=%d", e.Arg0)
	case KindStwAbort:
		return fmt.Sprintf("dirty-pg=%d budget=%d", e.Arg0, e.Arg1)
	case KindPauseBegin:
		return fmt.Sprintf("trigger=%d", e.Arg0)
	case KindPauseEnd:
		return fmt.Sprintf("stall=%s", time.Duration(e.Arg0))
	case KindDrain:
		return fmt.Sprintf("entries=%d took=%s", e.Arg0, time.Duration(e.Arg1))
	case KindAlloc, KindFree:
		return fmt.Sprintf("size=%d lat=%s", e.Arg0, time.Duration(e.Arg1))
	case KindGovDecision:
		return fmt.Sprintf("level %d -> %d", e.Arg1, e.Arg0)
	case KindTrip:
		return "cause=" + TripCause(e.Arg0).String()
	}
	return ""
}

// WriteTimeline renders the dump as one merged, time-ordered aligned-text
// timeline: span rows carry their duration (resolved from the matching End
// event), nested spans are indented, instants print inline. The msstat
// -events rendering.
func WriteTimeline(w io.Writer, d *Dump) error {
	var rows []timelineRow
	for _, t := range d.Threads {
		type open struct {
			row   int
			kind  Kind
			nanos uint64
		}
		var stack []open
		for _, e := range t.Events {
			switch {
			case spanOpen(e.Kind) != 0:
				rows = append(rows, timelineRow{
					nanos:  e.Nanos,
					thread: t.Name,
					depth:  len(stack),
					name:   spanName(e.Kind),
					dur:    -1,
					detail: detailFor(e),
				})
				stack = append(stack, open{row: len(rows) - 1, kind: e.Kind, nanos: e.Nanos})
			case isEnd(e.Kind):
				if n := len(stack); n > 0 && spanOpen(stack[n-1].kind) == e.Kind {
					r := &rows[stack[n-1].row]
					r.dur = int64(e.Nanos - stack[n-1].nanos)
					if det := detailFor(e); det != "" {
						if r.detail != "" {
							r.detail += " "
						}
						r.detail += det
					}
					stack = stack[:n-1]
				}
				// An End with no Begin in the window is dropped: its span
				// row fell outside the capture.
			default:
				rows = append(rows, timelineRow{
					nanos:  e.Nanos,
					thread: t.Name,
					depth:  len(stack),
					name:   d.kindName(e.Kind),
					dur:    -1,
					detail: detailFor(e),
				})
			}
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].nanos < rows[j].nanos })

	if _, err := fmt.Fprintf(w, "flight dump: cause=%s window=[%s, %s] events=%d rings=%d\n",
		d.Cause,
		time.Duration(d.SinceNanos).Round(time.Microsecond),
		time.Duration(d.TakenNanos).Round(time.Microsecond),
		d.Len(), len(d.Threads)); err != nil {
		return err
	}
	tb := metrics.NewTable("t", "thread", "event", "dur", "detail")
	for _, r := range rows {
		indent := ""
		for i := 0; i < r.depth; i++ {
			indent += "  "
		}
		dur := "-"
		if r.dur >= 0 {
			dur = time.Duration(r.dur).Round(100 * time.Nanosecond).String()
		}
		tb.AddRow(
			fmt.Sprintf("%.3fms", float64(r.nanos)/1e6),
			r.thread,
			indent+r.name,
			dur,
			r.detail,
		)
	}
	_, err := io.WriteString(w, tb.String())
	return err
}
