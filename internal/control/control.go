// Package control is MineSweeper's adaptive control plane: the component
// that closes the telemetry loop. The paper fixes its policy knobs offline —
// the 15% quarantine fraction that triggers a sweep (§3.2), the 9x unmapped
// factor (§4.2), the §5.7 allocation-pause brake — and Figure 13 shows how a
// single static threshold trades memory against CPU differently on every
// workload. Production memory-safety tooling (GWP-ASan) instead feeds cheap
// always-on signals into runtime policy. This package is that feedback
// controller for MineSweeper.
//
// The pieces:
//
//   - Knobs: the runtime-steerable policy parameters (sweep-trigger
//     fraction, unmapped factor, pause-brake strength, helper worker count),
//     published through one atomic pointer so hot paths read them with a
//     single load;
//   - Rails: per-knob min/max bounds every policy decision is clamped to,
//     derived from the base knobs;
//   - Pressure: a hysteresis-banded evaluator folding RSS, live bytes,
//     quarantine depth/age and the user's memory budget into one of three
//     levels (Nominal, Elevated, Critical). Enter and exit thresholds
//     differ, so a workload hovering at a band edge does not flap. Like the
//     paper's own policy knobs, the bands are fixed offline;
//   - Policy: the decision function. Static freezes the configured knobs
//     (bit-for-bit the ungoverned behaviour); AIMD — the default governor —
//     tightens multiplicatively under pressure and relaxes additively back
//     toward the configured baseline when calm, the classic
//     congestion-control shape that reacts fast and recovers smoothly;
//   - Plane: one heap's control plane, observed by the core layer at every
//     sweep boundary, recording each adjustment with its triggering inputs
//     in a lock-free decision ring (internal/ring, shared with telemetry).
//
// Cost discipline matches the telemetry layer's: decisions happen only at
// sweep boundaries (already rare and expensive), and the mutator-visible
// cost is one atomic pointer load on the amortised sweep-trigger and pause
// checks — paths that already run once per 16 operations, not per operation.
package control

import (
	"encoding/json"
	"fmt"
	"sync/atomic"

	"minesweeper/internal/ring"
)

// Knobs is the set of policy parameters the control plane steers between
// sweeps. The zero value is not meaningful; a plane's base knobs come from
// the core configuration.
type Knobs struct {
	// SweepThreshold is the quarantine fraction of the live heap that
	// triggers a sweep (§3.2; the paper's offline default is 0.15).
	SweepThreshold float64 `json:"sweep_threshold"`
	// UnmappedFactor is the unmapped-quarantine multiple of RSS that
	// triggers a sweep (§4.2; the paper uses 9).
	UnmappedFactor float64 `json:"unmapped_factor"`
	// PauseThreshold is the quarantine:heap ratio past which allocating
	// threads pause for a sweep (§5.7). Lower is a stronger brake; zero
	// keeps pausing disabled.
	PauseThreshold float64 `json:"pause_threshold"`
	// Helpers is the helper sweep-worker count (§4.4).
	Helpers int `json:"helpers"`
	// RescanBudgetPages is the pipelined sweep's dirty-page budget: the
	// concurrent pre-clean keeps running rounds until the soft-dirty set
	// is under this many pages before stopping the world, so a lower
	// budget buys shorter STW windows with more concurrent scanning.
	// Zero or negative disables pre-clean (the STW re-scan takes the
	// dirty set as-is).
	RescanBudgetPages int `json:"rescan_budget_pages"`
	// ZeroDeferred is unread and always false: zero-on-free (§4.1) runs
	// only inside free(). Kept so existing Knobs literals compile.
	ZeroDeferred bool `json:"zero_deferred"`
}

// Rails bound every knob. Decisions are clamped to the rails before
// publication, so a runaway policy cannot push the system outside the
// envelope the base knobs imply. A plane's rails are always
// DefaultRails(base).
type Rails struct {
	SweepThresholdMin float64 `json:"sweep_threshold_min"`
	SweepThresholdMax float64 `json:"sweep_threshold_max"`
	UnmappedFactorMin float64 `json:"unmapped_factor_min"`
	UnmappedFactorMax float64 `json:"unmapped_factor_max"`
	PauseThresholdMin float64 `json:"pause_threshold_min"`
	PauseThresholdMax float64 `json:"pause_threshold_max"`
	HelpersMin        int     `json:"helpers_min"`
	HelpersMax        int     `json:"helpers_max"`
	RescanBudgetMin   int     `json:"rescan_budget_min"`
	RescanBudgetMax   int     `json:"rescan_budget_max"`
}

// DefaultRails derives the standard envelope around a base configuration:
// threshold-like knobs may tighten well below their configured value but
// never rise above it (the configured value is the relaxed state), and the
// helper count may grow to roughly double the configured workers but never
// shrink below them. A pause brake the user disabled (base 0) stays disabled
// — the governor must not introduce stalls the configuration promised away.
func DefaultRails(base Knobs) Rails {
	r := Rails{
		SweepThresholdMin: base.SweepThreshold / 16,
		SweepThresholdMax: base.SweepThreshold,
		UnmappedFactorMin: 1,
		UnmappedFactorMax: base.UnmappedFactor,
		PauseThresholdMin: base.PauseThreshold / 8,
		PauseThresholdMax: base.PauseThreshold,
		HelpersMin:        base.Helpers,
		HelpersMax:        2*base.Helpers + 2,
		RescanBudgetMin:   base.RescanBudgetPages / 8,
		RescanBudgetMax:   base.RescanBudgetPages,
	}
	if base.UnmappedFactor < 1 {
		// Unmapped trigger disabled (or nonsensical) in the base config:
		// freeze it rather than inventing one.
		r.UnmappedFactorMin = base.UnmappedFactor
		r.UnmappedFactorMax = base.UnmappedFactor
	}
	if base.RescanBudgetPages <= 0 {
		// Pre-clean disabled in the base config: the governor must not
		// introduce concurrent scan rounds the configuration turned off.
		r.RescanBudgetMin = base.RescanBudgetPages
		r.RescanBudgetMax = base.RescanBudgetPages
	}
	return r
}

// Clamp returns k with every field forced inside the rails.
func (r Rails) Clamp(k Knobs) Knobs {
	k.SweepThreshold = clampF(k.SweepThreshold, r.SweepThresholdMin, r.SweepThresholdMax)
	k.UnmappedFactor = clampF(k.UnmappedFactor, r.UnmappedFactorMin, r.UnmappedFactorMax)
	k.PauseThreshold = clampF(k.PauseThreshold, r.PauseThresholdMin, r.PauseThresholdMax)
	if k.Helpers < r.HelpersMin {
		k.Helpers = r.HelpersMin
	}
	if k.Helpers > r.HelpersMax {
		k.Helpers = r.HelpersMax
	}
	if k.RescanBudgetPages < r.RescanBudgetMin {
		k.RescanBudgetPages = r.RescanBudgetMin
	}
	if k.RescanBudgetPages > r.RescanBudgetMax {
		k.RescanBudgetPages = r.RescanBudgetMax
	}
	return k
}

// Contains reports whether k lies inside the rails (tests).
func (r Rails) Contains(k Knobs) bool { return r.Clamp(k) == k }

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Level is a hysteresis-banded pressure level.
type Level int32

// Pressure levels.
const (
	// Nominal: comfortably inside the budget; the policy relaxes toward
	// its configured baseline.
	Nominal Level = iota
	// Elevated: approaching the budget (or the sweeper is falling behind);
	// the policy tightens.
	Elevated
	// Critical: at or over the budget; the policy tightens hard.
	Critical
)

// String returns the level's name.
func (l Level) String() string {
	switch l {
	case Nominal:
		return "nominal"
	case Elevated:
		return "elevated"
	case Critical:
		return "critical"
	default:
		return fmt.Sprintf("Level(%d)", int32(l))
	}
}

// MarshalJSON renders the level as its name.
func (l Level) MarshalJSON() ([]byte, error) { return json.Marshal(l.String()) }

// UnmarshalJSON accepts either the name or the numeric value.
func (l *Level) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		for _, v := range []Level{Nominal, Elevated, Critical} {
			if v.String() == s {
				*l = v
				return nil
			}
		}
		return fmt.Errorf("control: unknown pressure level %q", s)
	}
	var n int32
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*l = Level(n)
	return nil
}

// Inputs is the heap state one pressure evaluation observes — the telemetry
// signals PR 4 built, gathered by the core layer at a sweep boundary.
type Inputs struct {
	// LiveBytes is the application's live heap (substrate allocations minus
	// quarantine).
	LiveBytes uint64 `json:"live_bytes"`
	// QuarantinedBytes is mapped freed-but-unreleased bytes.
	QuarantinedBytes uint64 `json:"quarantined_bytes"`
	// UnmappedBytes is the decommitted portion of the quarantine (§4.2).
	UnmappedBytes uint64 `json:"unmapped_bytes"`
	// FailedBytes is quarantined bytes held back by failed frees.
	FailedBytes uint64 `json:"failed_bytes"`
	// RSS is the resident footprint the budget is measured against.
	RSS uint64 `json:"rss"`
	// Budget is the configured memory budget (0 = unbounded).
	Budget uint64 `json:"budget"`
	// AgeEpochs is how many sweep epochs the oldest pending free has
	// waited — the sweeper-falling-behind signal.
	AgeEpochs uint64 `json:"age_epochs"`
	// SweepNanos, Released and Retained describe the sweep that just
	// completed (zero when the sweep had nothing to do).
	SweepNanos int64  `json:"sweep_ns"`
	Released   uint64 `json:"released"`
	Retained   uint64 `json:"retained"`
}

// Usage returns the budget-usage ratio (RSS against budget), or 0 when no
// budget is set.
func (in Inputs) Usage() float64 {
	if in.Budget == 0 {
		return 0
	}
	return float64(in.RSS) / float64(in.Budget)
}

// The pressure evaluator's hysteresis bands. Enter thresholds sit above
// exit thresholds so a workload oscillating around one boundary does not
// flap between levels (classic hysteresis): Elevated at 80% of budget (back
// to Nominal below 70%), Critical at 95% (back below 85%).
const (
	elevatedEnter = 0.80
	elevatedExit  = 0.70
	criticalEnter = 0.95
	criticalExit  = 0.85
	// ageElevated is the quarantine age, in sweep epochs, past which
	// pressure is at least Elevated regardless of budget: the sweeper is
	// provably not keeping up with the free rate.
	ageElevated = 8
)

// nextLevel folds one observation into the level state machine and returns
// the new level. It is a pure function of its arguments.
func nextLevel(cur Level, in Inputs) Level {
	u := in.Usage()
	lvl := cur
	switch cur {
	case Nominal:
		if u >= criticalEnter {
			lvl = Critical
		} else if u >= elevatedEnter {
			lvl = Elevated
		}
	case Elevated:
		if u >= criticalEnter {
			lvl = Critical
		} else if u < elevatedExit {
			lvl = Nominal
		}
	case Critical:
		if u < criticalExit {
			if u >= elevatedEnter {
				lvl = Elevated
			} else {
				lvl = Nominal
			}
		}
	}
	// Sweeper falling behind lifts pressure to at least Elevated even with
	// no budget set: an ancient pending free means quarantine is growing
	// faster than sweeps retire it.
	if in.AgeEpochs >= ageElevated && lvl == Nominal {
		lvl = Elevated
	}
	return lvl
}

// Config configures a Plane.
type Config struct {
	// Base is the configured (relaxed) knob values; decisions are bounded
	// by DefaultRails(Base).
	Base Knobs
	// Budget is the memory budget in bytes (0 = unbounded; pressure then
	// comes only from quarantine age).
	Budget uint64
	// Policy decides knob adjustments; nil means Static.
	Policy Policy
	// RingCap is the decision ring capacity (ring.DefaultCap if <= 0).
	RingCap int
}

// Plane is one heap's control plane. The core layer calls Observe under its
// sweep lock (single writer); mutator hot paths call Knobs, Budget and Level
// concurrently. Budget and rails are fixed at construction; only the knobs
// and the level change, published atomically at sweep boundaries.
type Plane struct {
	base   Knobs
	policy Policy
	rails  Rails
	budget uint64

	cur          atomic.Pointer[Knobs]
	level        atomic.Int32
	observations atomic.Uint64
	ring         *ring.Ring[Decision]
}

// NewPlane builds a control plane publishing cfg.Base as the initial knobs.
func NewPlane(cfg Config) *Plane {
	if cfg.Policy == nil {
		cfg.Policy = Static{}
	}
	p := &Plane{
		base:   cfg.Base,
		policy: cfg.Policy,
		rails:  DefaultRails(cfg.Base),
		budget: cfg.Budget,
		ring:   ring.New(cfg.RingCap, func(d *Decision) *uint64 { return &d.Seq }),
	}
	base := cfg.Base
	p.cur.Store(&base)
	return p
}

// Knobs returns the currently effective knob values (one atomic load).
func (p *Plane) Knobs() Knobs { return *p.cur.Load() }

// Base returns the configured (relaxed) knob values.
func (p *Plane) Base() Knobs { return p.base }

// Rails returns the decision envelope.
func (p *Plane) Rails() Rails { return p.rails }

// Budget returns the memory budget in bytes (0 = unbounded).
func (p *Plane) Budget() uint64 { return p.budget }

// Level returns the current pressure level.
func (p *Plane) Level() Level { return Level(p.level.Load()) }

// PolicyName returns the governing policy's name.
func (p *Plane) PolicyName() string { return p.policy.Name() }

// Observations returns how many sweep-boundary observations the plane has
// folded in (decisions are the subset that changed something).
func (p *Plane) Observations() uint64 { return p.observations.Load() }

// Ring exposes the decision ring (tests, custom renderers).
func (p *Plane) Ring() *ring.Ring[Decision] { return p.ring }

// Observe folds one sweep-boundary observation into the plane: evaluate
// pressure with hysteresis, let the policy steer the knobs, clamp to the
// rails, publish. Returns the decision and whether anything changed (level
// or knobs); unchanged observations are counted but not recorded, so the
// ring holds adjustments, not heartbeats.
//
// Observe must be called from one goroutine at a time (the core layer's
// sweep lock provides this); readers of Knobs/Level are lock-free.
func (p *Plane) Observe(in Inputs) (Decision, bool) {
	p.observations.Add(1)
	in.Budget = p.budget
	prev := Level(p.level.Load())
	lvl := nextLevel(prev, in)
	cur := *p.cur.Load()
	next := p.rails.Clamp(p.policy.Decide(lvl, in, cur, p.base, p.rails))
	if lvl == prev && next == cur {
		return Decision{}, false
	}
	p.level.Store(int32(lvl))
	if next != cur {
		k := next
		p.cur.Store(&k)
	}
	d := Decision{Level: lvl, In: in, Before: cur, After: next}
	d.Seq = p.ring.Push(d)
	return d, true
}

// State is the plane's exportable snapshot, embedded in telemetry snapshots
// and rendered by msrun/msstat.
type State struct {
	Policy         string     `json:"policy"`
	Level          Level      `json:"level"`
	Budget         uint64     `json:"budget"`
	Base           Knobs      `json:"base"`
	Knobs          Knobs      `json:"knobs"`
	Rails          Rails      `json:"rails"`
	Observations   uint64     `json:"observations"`
	DecisionsTotal uint64     `json:"decisions_total"`
	Decisions      []Decision `json:"decisions"`
}

// State captures the plane's current state, including the decision ring's
// retained window (oldest first).
func (p *Plane) State() State {
	return State{
		Policy:         p.policy.Name(),
		Level:          p.Level(),
		Budget:         p.Budget(),
		Base:           p.base,
		Knobs:          p.Knobs(),
		Rails:          p.Rails(),
		Observations:   p.observations.Load(),
		DecisionsTotal: p.ring.Total(),
		Decisions:      p.ring.Snapshot(),
	}
}
