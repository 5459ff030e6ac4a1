// Package schemes builds each memory-management scheme the evaluation
// compares — the simulated equivalent of choosing which .so to LD_PRELOAD
// under an unmodified benchmark binary (§5.1).
package schemes

import (
	"fmt"
	"strings"

	"minesweeper/internal/alloc"
	"minesweeper/internal/control"
	"minesweeper/internal/core"
	"minesweeper/internal/crcount"
	"minesweeper/internal/dangsan"
	"minesweeper/internal/dlmalloc"
	"minesweeper/internal/ffmalloc"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/markus"
	"minesweeper/internal/mem"
	"minesweeper/internal/oscar"
	"minesweeper/internal/psweeper"
	"minesweeper/internal/scudo"
	"minesweeper/internal/sim"
)

// Kind identifies a scheme.
type Kind int

// The schemes under evaluation.
const (
	// Baseline is unmodified jemalloc (the paper's baseline for all three
	// re-run techniques).
	Baseline Kind = iota
	// MineSweeper is the fully concurrent default configuration.
	MineSweeper
	// MineSweeperMostly is the mostly concurrent (stop-the-world
	// re-scan) variant (§5.3).
	MineSweeperMostly
	// MarkUs is the transitive-marking baseline.
	MarkUs
	// FFMalloc is the one-time-allocator baseline.
	FFMalloc
	// Scudo is the hardened-allocator extension with MineSweeper attached
	// (§7: "we have also built a Scudo implementation").
	Scudo
	// Oscar is the page-permissions comparator (§6.3).
	Oscar
	// DangSan is the pointer-tracking nullification comparator (§6.4).
	DangSan
	// PSweeper is the concurrent pointer-sweeping comparator (§6.4).
	PSweeper
	// CRCount is the reference-counting comparator (§6.6).
	CRCount
	// Dlmalloc is an unprotected GNU-malloc-style allocator with in-band
	// metadata (the §2 footnote's corruptible baseline).
	Dlmalloc
	// MineSweeperDlmalloc drops the MineSweeper layer onto the dlmalloc
	// substrate — a second any-allocator integration (§7).
	MineSweeperDlmalloc

	// numKinds counts the schemes: every Kind below it has a name and a
	// factory.
	numKinds
)

// Valid reports whether k names a scheme.
func (k Kind) Valid() bool { return k >= 0 && k < numKinds }

// IsMineSweeper reports whether the scheme is the MineSweeper layer over
// some substrate (a core.Heap): the schemes whose core configuration,
// budget and governor Options reach, and whose knobs a control plane
// steers.
func (k Kind) IsMineSweeper() bool {
	switch k {
	case MineSweeper, MineSweeperMostly, Scudo, MineSweeperDlmalloc:
		return true
	}
	return false
}

// String returns the scheme's display name.
func (k Kind) String() string {
	switch k {
	case Baseline:
		return "baseline"
	case MineSweeper:
		return "minesweeper"
	case MineSweeperMostly:
		return "minesweeper-mostly"
	case MarkUs:
		return "markus"
	case FFMalloc:
		return "ffmalloc"
	case Scudo:
		return "scudo-minesweeper"
	case Oscar:
		return "oscar"
	case DangSan:
		return "dangsan"
	case PSweeper:
		return "psweeper"
	case CRCount:
		return "crcount"
	case Dlmalloc:
		return "dlmalloc"
	case MineSweeperDlmalloc:
		return "minesweeper-dlmalloc"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Names returns every scheme's name, in Kind order.
func Names() []string {
	names := make([]string, numKinds)
	for k := range numKinds {
		names[k] = k.String()
	}
	return names
}

// ByName returns the standard factory for the scheme named name (the CLI
// -scheme form).
func ByName(name string) (Factory, error) {
	for k := range numKinds {
		if k.String() == name {
			return New(k), nil
		}
	}
	return Factory{}, fmt.Errorf("unknown scheme %q (want one of %s)", name, strings.Join(Names(), ", "))
}

// Factory builds an allocator for one run.
type Factory struct {
	// Name identifies the scheme in reports.
	Name string
	// Build constructs the allocator over a fresh address space. world
	// may be nil when the caller provides no stop-the-world facility.
	Build func(space *mem.AddressSpace, world *sim.World) (alloc.Allocator, error)
}

// Options are the overrides a caller layers over a scheme's standard
// construction. The zero value builds every scheme as the paper configures
// it.
type Options struct {
	// Core replaces core.DefaultConfig() as the MineSweeper schemes' layer
	// configuration (nil = default). Each Build works on its own copy, and
	// fills in its World when Core has none. The scheme still sets what
	// is its own: MineSweeperMostly runs MostlyConcurrent, and
	// MineSweeperDlmalloc never unmaps.
	Core *core.Config
	// SweepThreshold overrides MarkUs's marking trigger and pSweeper's
	// wake threshold (0 = the scheme's default). The MineSweeper schemes
	// take theirs from Core.
	SweepThreshold float64
	// Synchronous runs sweeps on the freeing thread: core.Synchronous mode
	// for the MineSweeper schemes, and MarkUs's and pSweeper's synchronous
	// modes.
	Synchronous bool
	// Budget and Policy govern a MineSweeper heap with a control plane,
	// fresh per Build, whose base knobs are the core configuration's
	// (core.Config.Knobs). Budget is the resident-memory budget in bytes
	// (0 = unbounded: pressure then comes only from quarantine age). A nil
	// Policy with a Budget governs with AIMD; with neither, the heap is
	// ungoverned. Ignored by the other schemes.
	Budget uint64
	Policy control.Policy
}

// New returns the standard factory for a scheme kind.
func New(kind Kind) Factory { return NewWith(kind, Options{}) }

// NewWith returns the factory for a scheme kind with opts layered over its
// standard construction: the one place a scheme becomes a heap. The Build
// of an unknown kind returns an error.
func NewWith(kind Kind, opts Options) Factory {
	return Factory{Name: kind.String(), Build: func(space *mem.AddressSpace, world *sim.World) (alloc.Allocator, error) {
		return build(kind, opts, space, world)
	}}
}

func build(kind Kind, opts Options, space *mem.AddressSpace, world *sim.World) (alloc.Allocator, error) {
	switch kind {
	case Baseline:
		return jemalloc.New(space, jemalloc.DefaultConfig()), nil
	case MineSweeper, MineSweeperMostly:
		return core.New(space, opts.coreConfig(kind, world), jemalloc.DefaultConfig())
	case Scudo:
		cfg := opts.coreConfig(kind, world)
		scfg := scudo.DefaultConfig()
		scfg.Core = &cfg
		return scudo.New(space, scfg)
	case MineSweeperDlmalloc:
		return core.NewWithSubstrate(space, opts.coreConfig(kind, world), dlmalloc.New(space))
	case MarkUs:
		cfg := markus.DefaultConfig()
		if world != nil {
			cfg.World = world
		}
		if opts.SweepThreshold > 0 {
			cfg.SweepThreshold = opts.SweepThreshold
		}
		cfg.Synchronous = opts.Synchronous
		return markus.New(space, cfg, jemalloc.DefaultConfig()), nil
	case FFMalloc:
		return ffmalloc.New(space), nil
	case Oscar:
		return oscar.New(space), nil
	case DangSan:
		return dangsan.New(space, jemalloc.DefaultConfig()), nil
	case PSweeper:
		cfg := psweeper.DefaultConfig()
		if opts.SweepThreshold > 0 {
			cfg.WakeThreshold = opts.SweepThreshold
		}
		cfg.Synchronous = opts.Synchronous
		return psweeper.New(space, cfg, jemalloc.DefaultConfig()), nil
	case CRCount:
		return crcount.New(space, jemalloc.DefaultConfig()), nil
	case Dlmalloc:
		return dlmalloc.New(space), nil
	}
	return nil, fmt.Errorf("schemes: unknown scheme %v", kind)
}

// coreConfig resolves the MineSweeper layer configuration of one Build of
// kind.
func (o Options) coreConfig(kind Kind, world *sim.World) core.Config {
	cfg := core.DefaultConfig()
	if o.Core != nil {
		cfg = *o.Core
	}
	if world != nil && cfg.World == nil {
		cfg.World = world
	}
	if kind == MineSweeperMostly {
		cfg.Mode = core.MostlyConcurrent
	}
	if o.Synchronous {
		cfg.Mode = core.Synchronous
	}
	if kind == MineSweeperDlmalloc {
		// In-band chunks share pages with neighbours: page release is
		// unavailable on this substrate.
		cfg.Unmapping = false
	}
	if o.Budget > 0 || o.Policy != nil {
		pol := o.Policy
		if pol == nil {
			pol = control.NewAIMD()
		}
		// The plane's base knobs are the resolved core values, so a Static
		// policy reproduces the ungoverned behaviour exactly and an
		// adaptive one relaxes back to precisely the configured state.
		cfg.Control = control.NewPlane(control.Config{
			Base:   cfg.Knobs(),
			Budget: o.Budget,
			Policy: pol,
		})
	}
	return cfg
}

// Custom returns a MineSweeper factory with an explicit core configuration —
// the hook the ablation experiments (Figures 15-17) use to switch individual
// optimisations off. Each Build works on its own copy of cfg, so a heap
// built for one run stops that run's World, never an earlier run's.
func Custom(name string, cfg core.Config) Factory {
	f := NewWith(MineSweeper, Options{Core: &cfg})
	f.Name = name
	return f
}

// GovernedByName resolves a scheme name and policy name (the CLI flag forms)
// into a governed factory. Only the MineSweeper schemes can be governed —
// the knobs the plane steers do not exist elsewhere — so any other scheme
// name is an error, as is an unknown policy. An empty policy name selects
// AIMD, the policy that actually closes the loop.
func GovernedByName(scheme string, budget uint64, policyName string) (Factory, error) {
	k := numKinds
	for c := range numKinds {
		if c.String() == scheme {
			k = c
		}
	}
	if !k.IsMineSweeper() {
		return Factory{}, fmt.Errorf("schemes: a governor requires a MineSweeper scheme (%v, %v, %v or %v), not %q",
			MineSweeper, MineSweeperMostly, Scudo, MineSweeperDlmalloc, scheme)
	}
	var pol control.Policy
	switch policyName {
	case "", "aimd":
		pol = control.NewAIMD()
	case "static":
		pol = control.Static{}
	default:
		return Factory{}, fmt.Errorf("schemes: unknown governor policy %q (want aimd or static)", policyName)
	}
	f := NewWith(k, Options{Budget: budget, Policy: pol})
	f.Name = scheme + "-governed"
	return f, nil
}

// Governed returns a MineSweeper factory whose heap is steered by an adaptive
// control plane: budget is the resident-memory budget in bytes (0 =
// unbounded, pressure then comes only from quarantine age) and policy the
// governing policy (nil = control.Static, the bit-for-bit-compatible
// default). Each Build constructs a fresh plane, so repeated runs do not
// share governor state or a World.
func Governed(name string, cfg core.Config, budget uint64, policy control.Policy) Factory {
	if policy == nil {
		policy = control.Static{}
	}
	f := NewWith(MineSweeper, Options{Core: &cfg, Budget: budget, Policy: policy})
	f.Name = name
	return f
}
