// Package fleet runs many MineSweeper tenants on one simulated host and
// arbitrates a single resident-memory budget between them. The paper's
// experiments (and every harness in this repo up to PR 9) measure one
// process; production deployments co-locate hundreds of services per
// machine, and "drop-in" protection has to hold when all of them quarantine
// memory at once. GWP-ASan's fleet framing is the model: host-level evidence
// over many co-resident processes, not one benchmark at a time.
//
// The design is a two-level control plane. Each tenant keeps the PR 5
// per-heap governor (control.Plane) completely unchanged; above them a
// host Arbiter runs the same AIMD shape over host-wide inputs and re-grants
// each tenant's MemoryBudget rail through Plane.SetBudget — an atomic
// publication the tenant's fast paths pick up on the amortised checks they
// already do, so federation costs the mutators nothing. Priority classes get
// weighted shares of the distributable budget; a guaranteed per-tenant floor
// means no tenant ever starves; tenants repeatedly pinned at their rail
// while the host is under pressure are flagged noisy and throttled first.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"minesweeper/internal/events"
)

// ErrBadConfig is wrapped by every config validation failure, mirroring the
// top-level minesweeper.ErrBadConfig idiom so callers can errors.Is a fleet
// misconfiguration regardless of which field tripped it.
var ErrBadConfig = errors.New("fleet: invalid config")

// Class describes one priority class of tenants. All tenants in a class
// share a workload shape, a floor and a weight; the arbiter treats lower
// Priority numbers as more important (0 is the highest class).
type Class struct {
	// Name labels the class in reports ("gold", "batch", ...).
	Name string `json:"name"`
	// Priority orders classes for the arbiter: 0 is squeezed least under
	// host pressure.
	Priority int `json:"priority"`
	// Weight is the class's share weight for the distributable (above
	// floors) portion of the host budget. Must be positive.
	Weight float64 `json:"weight"`
	// Tenants is how many tenant processes this class contributes.
	Tenants int `json:"tenants"`
	// Floor is the guaranteed per-tenant budget in bytes: the arbiter
	// never grants less, so the class cannot starve. The floors of all
	// tenants must sum to at most the host budget.
	Floor uint64 `json:"floor"`
	// Workload selects the open-loop service kernel ("cache", "churn" or
	// "burst"; empty means "cache", the webcache shape).
	Workload string `json:"workload"`
	// Lambda is the mean arrivals per tick (0 means 4).
	Lambda float64 `json:"lambda"`
	// Burst, when > 1, drives arrivals with an MMPP whose burst state runs
	// at Burst x Lambda; 0 or 1 keeps plain Poisson arrivals.
	Burst float64 `json:"burst"`
}

// Config configures a Host.
type Config struct {
	// HostBudget is the shared resident-memory budget in bytes the
	// arbiter apportions. Must be positive: a fleet without a budget has
	// nothing to federate.
	HostBudget uint64 `json:"host_budget"`
	// Classes is the tenant population. At least one class with at least
	// one tenant.
	Classes []Class `json:"classes"`
	// Ticks is the open-loop run length (default 256).
	Ticks int `json:"ticks"`
	// ArbiterEvery is the rebalance cadence in ticks (default 4) —
	// the host-level analogue of the per-heap plane's sweep-boundary
	// cadence.
	ArbiterEvery int `json:"arbiter_every"`
	// NoisyTicks is how many consecutive rebalances a tenant must sit
	// pinned at its rail, while the host is under pressure, before it is
	// flagged a noisy neighbour and throttled (default 3).
	NoisyTicks int `json:"noisy_ticks"`
	// Seed seeds every tenant's deterministic RNG chain.
	Seed uint64 `json:"seed"`
	// Workers bounds how many tenants serve arrivals concurrently per
	// tick (default max(4, GOMAXPROCS)).
	Workers int `json:"workers"`
	// Events, when non-nil, receives host-arbitration instants (tenant
	// throttles, rebalances, starvation averts, level changes) on a
	// "host-arbiter" ring and a flight-recorder trip on host-budget
	// breach.
	Events *events.Recorder `json:"-"`
}

// Tenants returns the total tenant count across all classes.
func (c Config) Tenants() int {
	n := 0
	for _, cl := range c.Classes {
		n += cl.Tenants
	}
	return n
}

// badf wraps ErrBadConfig with a field-specific message.
func badf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadConfig, fmt.Sprintf(format, args...))
}

// Validate checks the configuration for internal consistency, field by
// field, wrapping every failure in ErrBadConfig. Notably it rejects floors
// that sum past the host budget: a floor is a guarantee, and guarantees the
// host cannot cover are lies, not configuration.
func (c Config) Validate() error {
	if c.HostBudget == 0 {
		return badf("host budget must be positive")
	}
	if len(c.Classes) == 0 {
		return badf("at least one tenant class required")
	}
	if c.Ticks < 0 {
		return badf("ticks must be >= 0, got %d", c.Ticks)
	}
	if c.ArbiterEvery < 0 {
		return badf("arbiter cadence must be >= 0, got %d", c.ArbiterEvery)
	}
	if c.NoisyTicks < 0 {
		return badf("noisy-neighbour threshold must be >= 0, got %d", c.NoisyTicks)
	}
	if c.Workers < 0 {
		return badf("workers must be >= 0, got %d", c.Workers)
	}
	var floors uint64
	for i, cl := range c.Classes {
		if cl.Tenants < 1 {
			return badf("class %d (%q): tenants must be >= 1, got %d", i, cl.Name, cl.Tenants)
		}
		if !finite(cl.Weight) || cl.Weight <= 0 {
			return badf("class %d (%q): weight must be positive and finite, got %g", i, cl.Name, cl.Weight)
		}
		if cl.Priority < 0 {
			return badf("class %d (%q): priority must be >= 0, got %d", i, cl.Name, cl.Priority)
		}
		if !finite(cl.Lambda) || cl.Lambda < 0 {
			return badf("class %d (%q): lambda must be finite and >= 0, got %g", i, cl.Name, cl.Lambda)
		}
		if !finite(cl.Burst) || cl.Burst < 0 {
			return badf("class %d (%q): burst must be finite and >= 0, got %g", i, cl.Name, cl.Burst)
		}
		switch cl.Workload {
		case "", "cache", "churn", "burst":
		default:
			return badf("class %d (%q): unknown workload %q (want cache, churn or burst)", i, cl.Name, cl.Workload)
		}
		if cl.Floor > c.HostBudget {
			return badf("class %d (%q): per-tenant floor %d exceeds host budget %d", i, cl.Name, cl.Floor, c.HostBudget)
		}
		// floors <= HostBudget here, so the subtraction cannot wrap, and a
		// product overflowing 64 bits is past any budget.
		hi, classFloors := bits.Mul64(uint64(cl.Tenants), cl.Floor)
		if hi != 0 || classFloors > c.HostBudget-floors {
			return badf("tenant floors sum past the host budget (class %d adds %d x %d to %d, budget %d): floors are guarantees the host must be able to cover",
				i, cl.Tenants, cl.Floor, floors, c.HostBudget)
		}
		floors += classFloors
	}
	return nil
}

// finite reports whether f is neither NaN nor infinite. Every ordered
// comparison with NaN is false, so a range check alone lets it through.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// withDefaults returns the config with zero-valued tunables replaced by
// their defaults. Validate must have passed already.
func (c Config) withDefaults() Config {
	if c.Ticks == 0 {
		c.Ticks = 256
	}
	if c.ArbiterEvery == 0 {
		c.ArbiterEvery = 4
	}
	if c.NoisyTicks == 0 {
		c.NoisyTicks = 3
	}
	return c
}
