package events

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace_event export: the dump rendered in the JSON Array Format
// that chrome://tracing and Perfetto load directly. Span begin/end pairs
// become "B"/"E" duration events (one track per ring), instants become "i"
// events, and the capture cause is attached as process metadata. Timestamps
// are microseconds (float, so sub-microsecond phases keep resolution)
// relative to the recorder epoch.

// chromeEvent is one trace_event record.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// spanName maps a Begin/End pair to one Chrome duration-event name.
func spanName(k Kind) string {
	switch k {
	case KindSweepBegin, KindSweepEnd:
		return "sweep"
	case KindMarkBegin, KindMarkEnd:
		return "mark"
	case KindPrecleanBegin, KindPrecleanEnd:
		return "preclean"
	case KindStwBegin, KindStwEnd:
		return "stw"
	case KindRecycleBegin, KindRecycleEnd:
		return "recycle"
	case KindPurgeBegin, KindPurgeEnd:
		return "purge"
	case KindPauseBegin, KindPauseEnd:
		return "pause"
	}
	return k.String()
}

// chromeArgs labels an event's payload for the trace viewer.
func chromeArgs(e Event) map[string]any {
	switch e.Kind {
	case KindSweepBegin:
		return map[string]any{"trigger": e.Arg0, "entries_locked": e.Arg1}
	case KindSweepEnd, KindRecycleEnd:
		return map[string]any{"released": e.Arg0, "retained": e.Arg1}
	case KindMarkEnd:
		return map[string]any{"pages_scanned": e.Arg0, "bytes_scanned": e.Arg1}
	case KindPrecleanBegin:
		return map[string]any{"round": e.Arg0}
	case KindPrecleanEnd:
		return map[string]any{"pages": e.Arg0, "round": e.Arg1}
	case KindStwBegin:
		return map[string]any{"dirty_pages": e.Arg0}
	case KindStwAbort:
		return map[string]any{"dirty_pages": e.Arg0, "budget_pages": e.Arg1}
	case KindStwEnd:
		return map[string]any{"dirty_pages": e.Arg0}
	case KindPauseBegin:
		return map[string]any{"trigger": e.Arg0}
	case KindPauseEnd:
		return map[string]any{"stall_ns": e.Arg0}
	case KindDrain:
		return map[string]any{"entries": e.Arg0, "took_ns": e.Arg1}
	case KindAlloc, KindFree:
		return map[string]any{"size": e.Arg0, "latency_ns": e.Arg1}
	case KindGovDecision:
		return map[string]any{"level": e.Arg0, "prev_level": e.Arg1}
	case KindTrip:
		return map[string]any{"cause": TripCause(e.Arg0).String()}
	}
	if e.Arg0 != 0 || e.Arg1 != 0 {
		return map[string]any{"arg0": e.Arg0, "arg1": e.Arg1}
	}
	return nil
}

// WriteChromeTrace renders the dump as a Chrome trace_event JSON array.
// Every ring becomes one thread track; span pairs become B/E duration
// events. The writer tolerates spans cut by the capture window (an E with
// no B, or a B with no E) — chrome://tracing clips those — but a full
// nesting check is available separately via ValidateSpans.
func WriteChromeTrace(w io.Writer, d *Dump) error {
	out := make([]chromeEvent, 0, d.Len()+2*len(d.Threads)+1)
	out = append(out, chromeEvent{
		Name:  "process_name",
		Phase: "M",
		PID:   1,
		Args:  map[string]any{"name": fmt.Sprintf("minesweeper flight (%s)", d.Cause)},
	})
	for tid, t := range d.Threads {
		out = append(out, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   1,
			TID:   tid,
			Args:  map[string]any{"name": t.Name},
		})
		for _, e := range t.Events {
			ce := chromeEvent{
				TS:   float64(e.Nanos) / 1e3,
				PID:  1,
				TID:  tid,
				Args: chromeArgs(e),
			}
			switch {
			case spanOpen(e.Kind) != 0:
				ce.Name, ce.Phase = spanName(e.Kind), "B"
			case isEnd(e.Kind):
				ce.Name, ce.Phase = spanName(e.Kind), "E"
			default:
				ce.Name, ce.Phase, ce.Scope = d.kindName(e.Kind), "i", "t"
			}
			out = append(out, ce)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ValidateSpans checks that every ring's span events nest correctly: each
// End matches the innermost open Begin of the same pair, timestamps within
// a ring never run backwards across span boundaries, and — the sweep
// pipeline's structural invariant — non-sweep sweeper phases (mark,
// preclean, stw, recycle, purge) only open inside a sweep span. Spans
// clipped by the capture window are tolerated at the edges: unmatched Ends
// are only legal before the first Begin of that depth, and spans still open
// at the end of the dump are legal. Returns nil when the dump is
// well-formed.
func ValidateSpans(d *Dump) error {
	for _, t := range d.Threads {
		var stack []Kind
		clipped := true // still in the window's leading edge: bare Ends OK
		for _, e := range t.Events {
			switch {
			case spanOpen(e.Kind) != 0:
				if e.Kind != KindSweepBegin && e.Kind != KindPauseBegin {
					in := false
					for _, k := range stack {
						if k == KindSweepBegin {
							in = true
							break
						}
					}
					if !in && !clipped {
						return fmt.Errorf("events: ring %q: %s span opens outside a sweep span (seq %d)", t.Name, e.Kind, e.Seq)
					}
				}
				stack = append(stack, e.Kind)
				if e.Kind == KindSweepBegin || e.Kind == KindPauseBegin {
					clipped = false
				}
			case isEnd(e.Kind):
				if len(stack) == 0 {
					if clipped {
						continue // opening Begin fell before the window
					}
					return fmt.Errorf("events: ring %q: unmatched %s (seq %d)", t.Name, e.Kind, e.Seq)
				}
				open := stack[len(stack)-1]
				if spanOpen(open) != e.Kind {
					return fmt.Errorf("events: ring %q: %s closes %s (seq %d)", t.Name, e.Kind, open, e.Seq)
				}
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}
