package telemetry

import (
	"encoding/json"
	"fmt"

	"minesweeper/internal/ring"
)

// TriggerReason records why a sweep ran (§3.2, §4.2, §5.7).
type TriggerReason uint8

// Sweep trigger reasons.
const (
	// TriggerForced is an explicit Sweep() call (tests, shutdown).
	TriggerForced TriggerReason = iota
	// TriggerThreshold is the standard quarantine-fraction trigger (§3.2).
	TriggerThreshold
	// TriggerUnmapped is the unmapped-bytes-vs-RSS trigger (§4.2).
	TriggerUnmapped
	// TriggerPause is a sweep requested by a paused allocating thread
	// (§5.7).
	TriggerPause
	// TriggerBudget is a sweep requested because resident memory crossed
	// the configured budget (control plane).
	TriggerBudget
)

// String returns the reason's name.
func (t TriggerReason) String() string {
	switch t {
	case TriggerForced:
		return "forced"
	case TriggerThreshold:
		return "threshold"
	case TriggerUnmapped:
		return "unmapped"
	case TriggerPause:
		return "pause"
	case TriggerBudget:
		return "budget"
	default:
		return fmt.Sprintf("TriggerReason(%d)", int(t))
	}
}

// MarshalJSON renders the reason as its name, so exported snapshots are
// self-describing.
func (t TriggerReason) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.String())
}

// UnmarshalJSON accepts either the name or the numeric value.
func (t *TriggerReason) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		for _, r := range []TriggerReason{TriggerForced, TriggerThreshold, TriggerUnmapped, TriggerPause, TriggerBudget} {
			if r.String() == s {
				*t = r
				return nil
			}
		}
		return fmt.Errorf("telemetry: unknown trigger reason %q", s)
	}
	var n uint8
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*t = TriggerReason(n)
	return nil
}

// SweepRecord is one structured per-sweep record: what triggered the sweep,
// how long each phase took, and what the sweep accomplished. One is emitted
// per completed sweep and kept in the registry's ring buffer.
type SweepRecord struct {
	// Seq is the sweep's ordinal (1 = first sweep observed).
	Seq uint64 `json:"seq"`
	// Trigger is why the sweep ran.
	Trigger TriggerReason `json:"trigger"`

	// Per-phase durations in nanoseconds (§3.1, §4.3, §4.4, §4.5). Phases
	// that did not run (e.g. DirtyNanos outside mostly-concurrent mode)
	// are zero.
	MarkNanos    int64 `json:"mark_ns"`
	DirtyNanos   int64 `json:"dirty_ns"`   // soft-dirty STW re-scan
	RecycleNanos int64 `json:"recycle_ns"` // filter + FreeBatch release
	PurgeNanos   int64 `json:"purge_ns"`
	TotalNanos   int64 `json:"total_ns"`
	// PrecleanNanos is time spent in concurrent pre-clean rounds (test-and-
	// clear scans of soft-dirty pages run while mutators keep going) between
	// the concurrent mark and the STW re-scan, summed over the rounds,
	// including those that consume an aborted pause's backlog; zero when
	// marking is not concurrent or the dirty set was already under the
	// rescan budget.
	PrecleanNanos int64 `json:"preclean_ns,omitempty"`

	// Marking-phase work figures.
	PagesScanned uint64 `json:"pages_scanned"`
	BytesScanned uint64 `json:"bytes_scanned"`
	// BytesZeroSkipped is bytes the scan loop skipped via the 8-wide
	// zero-group compare — the zero-on-free dividend.
	BytesZeroSkipped uint64 `json:"bytes_zero_skipped"`
	// PagesKnownZero is pages the mark dismissed via the known-zero page
	// map without touching their memory at all — the step past
	// BytesZeroSkipped, which still had to read the words to see zeros.
	// Not counted in PagesScanned/BytesScanned.
	PagesKnownZero uint64 `json:"pages_known_zero,omitempty"`
	// PagesPtrFree is pages the mark dismissed, also without touching their
	// memory, because its previous read of them found no heap-range word
	// and no store has landed since. Disjoint from PagesKnownZero and not
	// counted in PagesScanned/BytesScanned.
	PagesPtrFree uint64 `json:"pages_ptr_free,omitempty"`
	// DirtyPages is the number of soft-dirty pages the STW re-scan visited —
	// the figure that makes the pause window scale with mutator write rate
	// rather than heap size. Zero outside mostly-concurrent mode.
	DirtyPages uint64 `json:"dirty_pages,omitempty"`
	// PrecleanPages is the total pages visited by concurrent pre-clean
	// rounds before the STW re-scan.
	PrecleanPages uint64 `json:"preclean_pages,omitempty"`

	// Quarantine outcome figures.
	EntriesLocked uint64 `json:"entries_locked"`
	Released      uint64 `json:"released"`
	Retained      uint64 `json:"retained"` // failed frees kept in quarantine
	// Workers is the sweep worker count (main + helpers) that marked; the
	// helper-utilisation figure of §4.4.
	Workers int `json:"workers"`
	// ShardsSwept is how many arena shards this sweep locked in (per-shard
	// sweep ownership: threshold-triggered sweeps lock in only the shards
	// that are due). Zero when the quarantine is unsharded.
	ShardsSwept int `json:"shards_swept,omitempty"`
}

// DefaultRingCap is the default number of sweep records retained.
const DefaultRingCap = ring.DefaultCap
