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

// New returns the standard factory for a scheme kind.
func New(kind Kind) Factory {
	switch kind {
	case Baseline:
		return Factory{Name: kind.String(), Build: func(space *mem.AddressSpace, _ *sim.World) (alloc.Allocator, error) {
			return jemalloc.New(space, jemalloc.DefaultConfig()), nil
		}}
	case MineSweeper:
		return Custom(kind.String(), core.DefaultConfig())
	case MineSweeperMostly:
		cfg := core.DefaultConfig()
		cfg.Mode = core.MostlyConcurrent
		return Custom(kind.String(), cfg)
	case MarkUs:
		return Factory{Name: kind.String(), Build: func(space *mem.AddressSpace, world *sim.World) (alloc.Allocator, error) {
			cfg := markus.DefaultConfig()
			if world != nil {
				cfg.World = world
			}
			return markus.New(space, cfg, jemalloc.DefaultConfig()), nil
		}}
	case FFMalloc:
		return Factory{Name: kind.String(), Build: func(space *mem.AddressSpace, _ *sim.World) (alloc.Allocator, error) {
			return ffmalloc.New(space), nil
		}}
	case Scudo:
		return Factory{Name: kind.String(), Build: func(space *mem.AddressSpace, world *sim.World) (alloc.Allocator, error) {
			cfg := scudo.DefaultConfig()
			if world != nil {
				cfg.World = world
			}
			return scudo.New(space, cfg)
		}}
	case Oscar:
		return Factory{Name: kind.String(), Build: func(space *mem.AddressSpace, _ *sim.World) (alloc.Allocator, error) {
			return oscar.New(space), nil
		}}
	case DangSan:
		return Factory{Name: kind.String(), Build: func(space *mem.AddressSpace, _ *sim.World) (alloc.Allocator, error) {
			return dangsan.New(space, jemalloc.DefaultConfig()), nil
		}}
	case PSweeper:
		return Factory{Name: kind.String(), Build: func(space *mem.AddressSpace, _ *sim.World) (alloc.Allocator, error) {
			return psweeper.New(space, psweeper.DefaultConfig(), jemalloc.DefaultConfig()), nil
		}}
	case CRCount:
		return Factory{Name: kind.String(), Build: func(space *mem.AddressSpace, _ *sim.World) (alloc.Allocator, error) {
			return crcount.New(space, jemalloc.DefaultConfig()), nil
		}}
	case Dlmalloc:
		return Factory{Name: kind.String(), Build: func(space *mem.AddressSpace, _ *sim.World) (alloc.Allocator, error) {
			return dlmalloc.New(space), nil
		}}
	case MineSweeperDlmalloc:
		return Factory{Name: kind.String(), Build: func(space *mem.AddressSpace, world *sim.World) (alloc.Allocator, error) {
			cfg := core.DefaultConfig()
			if world != nil {
				cfg.World = world
			}
			// In-band chunks share pages with neighbours: page release
			// is unavailable on this substrate.
			cfg.Unmapping = false
			return core.NewWithSubstrate(space, cfg, dlmalloc.New(space))
		}}
	default:
		panic(fmt.Sprintf("schemes: unknown kind %d", kind))
	}
}

// Custom returns a MineSweeper factory with an explicit core configuration —
// the hook the ablation experiments (Figures 15-17) use to switch individual
// optimisations off. Each Build works on its own copy of cfg, so a heap
// built for one run stops that run's World, never an earlier run's.
func Custom(name string, cfg core.Config) Factory {
	return Factory{Name: name, Build: func(space *mem.AddressSpace, world *sim.World) (alloc.Allocator, error) {
		c := cfg
		if world != nil && c.World == nil {
			c.World = world
		}
		return core.New(space, c, jemalloc.DefaultConfig())
	}}
}

// GovernedByName resolves a scheme name and policy name (the CLI flag forms)
// into a governed factory. Only the sweeping MineSweeper schemes can be
// governed — the knobs the plane steers do not exist elsewhere — so any other
// scheme name is an error, as is an unknown policy. An empty policy name
// selects AIMD, the policy that actually closes the loop.
func GovernedByName(scheme string, budget uint64, policyName string) (Factory, error) {
	cfg := core.DefaultConfig()
	switch scheme {
	case "minesweeper":
	case "minesweeper-mostly":
		cfg.Mode = core.MostlyConcurrent
	default:
		return Factory{}, fmt.Errorf("schemes: a governor requires a sweeping scheme (minesweeper or minesweeper-mostly), not %q", scheme)
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
	return Governed(scheme+"-governed", cfg, budget, pol), nil
}

// Governed returns a MineSweeper factory whose heap is steered by an adaptive
// control plane: budget is the resident-memory budget in bytes (0 =
// unbounded, pressure then comes only from quarantine age) and policy the
// governing policy (nil = control.Static, the bit-for-bit-compatible
// default). Each Build constructs a fresh plane, so repeated runs do not
// share governor state or a World.
func Governed(name string, cfg core.Config, budget uint64, policy control.Policy) Factory {
	return Factory{Name: name, Build: func(space *mem.AddressSpace, world *sim.World) (alloc.Allocator, error) {
		c := cfg
		if world != nil && c.World == nil {
			c.World = world
		}
		c.Control = control.NewPlane(control.Config{
			Base: control.Knobs{
				SweepThreshold:    c.SweepThreshold,
				UnmappedFactor:    c.UnmappedFactor,
				PauseThreshold:    c.PauseThreshold,
				Helpers:           c.Helpers,
				RescanBudgetPages: c.RescanBudgetPages,
			},
			Budget: budget,
			Policy: policy,
		})
		return core.New(space, c, jemalloc.DefaultConfig())
	}}
}
