package control

// Policy decides the next inter-sweep knob values from one observation.
// Implementations must be pure functions of their arguments (no hidden
// state): the plane serialises calls under the core sweep lock, records the
// before/after pair in the decision ring, and clamps the result to the
// rails, so a policy only chooses a direction and a magnitude.
type Policy interface {
	// Name identifies the policy in decision records and reports.
	Name() string
	// Decide returns the knob values for the next inter-sweep interval.
	// cur is what is in effect now, base the configured (relaxed) values,
	// rails the envelope the result will be clamped to.
	Decide(level Level, in Inputs, cur, base Knobs, rails Rails) Knobs
}

// Static freezes the configured knobs: the governed heap behaves
// bit-for-bit like an ungoverned one. It is both the compatibility default
// and the control group for governor experiments.
type Static struct{}

// Name implements Policy.
func (Static) Name() string { return "static" }

// Decide implements Policy: always the configured base.
func (Static) Decide(_ Level, _ Inputs, _, base Knobs, _ Rails) Knobs { return base }

// AIMD is the default governor: additive increase, multiplicative decrease,
// the congestion-control shape. Under pressure it tightens multiplicatively
// — halving the sweep-trigger fraction reacts within one sweep cycle no
// matter how far the knob has drifted — and when calm it relaxes additively
// back toward the configured baseline, so recovery is gradual and cannot
// overshoot into a memory spike. "Tighter" means: sweep sooner (lower
// SweepThreshold), release unmapped quarantine sooner (lower
// UnmappedFactor), brake allocation earlier (lower PauseThreshold), and
// sweep faster (more Helpers).
type AIMD struct{}

// AIMD's steps: halve the threshold-like knobs and add two helpers under
// Critical, take three-quarters and add one under Elevated, and relax by an
// eighth of base per calm decision.
const (
	tightenCritical     = 0.5
	tightenElevated     = 0.75
	relaxFrac           = 0.125
	helpersStepCritical = 2
	helpersStepElevated = 1
)

// NewAIMD returns the AIMD governor.
func NewAIMD() *AIMD { return &AIMD{} }

// Name implements Policy.
func (*AIMD) Name() string { return "aimd" }

// Decide implements Policy.
func (*AIMD) Decide(level Level, _ Inputs, cur, base Knobs, rails Rails) Knobs {
	next := cur
	switch level {
	case Critical:
		next = tighten(cur, tightenCritical)
		next.Helpers = cur.Helpers + helpersStepCritical
	case Elevated:
		next = tighten(cur, tightenElevated)
		next.Helpers = cur.Helpers + helpersStepElevated
	default: // Nominal: additive recovery toward base.
		next.SweepThreshold = relax(cur.SweepThreshold, base.SweepThreshold)
		next.UnmappedFactor = relax(cur.UnmappedFactor, base.UnmappedFactor)
		next.PauseThreshold = relax(cur.PauseThreshold, base.PauseThreshold)
		next.RescanBudgetPages = relaxInt(cur.RescanBudgetPages, base.RescanBudgetPages)
		if cur.Helpers > base.Helpers {
			next.Helpers = cur.Helpers - 1
		}
	}
	return rails.Clamp(next)
}

// tighten scales the threshold-like knobs down by factor (Helpers is set by
// the caller). The rescan budget tightens too: under pressure sweeps come
// faster, so each one should spend more of its work concurrently (pre-clean
// down to a smaller dirty set) rather than inside the STW window.
func tighten(k Knobs, factor float64) Knobs {
	k.SweepThreshold *= factor
	k.UnmappedFactor *= factor
	k.PauseThreshold *= factor
	if k.RescanBudgetPages > 0 {
		k.RescanBudgetPages = int(float64(k.RescanBudgetPages) * factor)
	}
	return k
}

// relax steps cur additively toward base by relaxFrac*base without
// overshooting.
func relax(cur, base float64) float64 {
	if cur >= base {
		return base
	}
	next := cur + base*relaxFrac
	if next > base {
		return base
	}
	return next
}

// relaxInt is relax for integer knobs, stepping by at least one.
func relaxInt(cur, base int) int {
	if cur >= base {
		return base
	}
	step := int(float64(base) * relaxFrac)
	if step < 1 {
		step = 1
	}
	next := cur + step
	if next > base {
		return base
	}
	return next
}
