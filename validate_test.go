package minesweeper

import (
	"errors"
	"math"
	"strings"
	"testing"

	"minesweeper/internal/control"
	"minesweeper/internal/core"
)

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring expected in the error
	}{
		{"sweep threshold negative", Config{Scheme: SchemeMineSweeper, SweepThreshold: -0.1}, "SweepThreshold"},
		{"sweep threshold above one", Config{Scheme: SchemeMineSweeper, SweepThreshold: 1.5}, "SweepThreshold"},
		{"sweep threshold huge", Config{Scheme: SchemeMineSweeper, SweepThreshold: 1e18}, "SweepThreshold"},
		{"negative helpers", Config{Scheme: SchemeMineSweeper, Helpers: -1}, "Helpers"},
		{"negative buffer cap", Config{Scheme: SchemeMineSweeper, BufferCap: -8}, "BufferCap"},
		{"unmapped factor below one", Config{Scheme: SchemeMineSweeper, UnmappedFactor: 0.5}, "UnmappedFactor"},
		{"unmapped factor negative", Config{Scheme: SchemeMineSweeper, UnmappedFactor: -9}, "UnmappedFactor"},
		{"budget on sweepless scheme", Config{Scheme: SchemeBaseline, MemoryBudget: 1 << 30}, "MemoryBudget"},
		{"budget on markus", Config{Scheme: SchemeMarkUs, MemoryBudget: 1 << 30}, "MemoryBudget"},
		{"budget on ffmalloc", Config{Scheme: SchemeFFMalloc, MemoryBudget: 1 << 30}, "MemoryBudget"},
		{"controller on sweepless scheme", Config{Scheme: SchemeBaseline, Controller: AIMDPolicy()}, "Controller"},
		{"sweep threshold NaN", Config{Scheme: SchemeMineSweeper, SweepThreshold: math.NaN()}, "SweepThreshold"},
		{"pause threshold NaN", Config{Scheme: SchemeMineSweeper, PauseThreshold: math.NaN()}, "PauseThreshold"},
		{"pause threshold infinite", Config{Scheme: SchemeMineSweeper, PauseThreshold: math.Inf(1)}, "PauseThreshold"},
		{"unmapped factor NaN", Config{Scheme: SchemeMineSweeper, UnmappedFactor: math.NaN()}, "UnmappedFactor"},
		{"unmapped factor infinite", Config{Scheme: SchemeMineSweeper, UnmappedFactor: math.Inf(1)}, "UnmappedFactor"},
		{"unknown scheme", Config{Scheme: 99}, "Scheme"},
		{"negative scheme", Config{Scheme: -1}, "Scheme"},
		{"scheme past the last", Config{Scheme: SchemeMineSweeperDlmalloc + 1}, "Scheme"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.cfg)
			}
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("error %v does not wrap ErrBadConfig", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the bad field %q", err, tc.want)
			}
			// New must refuse the same configs.
			if _, err := NewProcess(tc.cfg); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("NewProcess error %v does not wrap ErrBadConfig", err)
			}
		})
	}
}

func TestValidateAcceptsDefaultsAndSaneConfigs(t *testing.T) {
	cases := []Config{
		{},
		{Scheme: SchemeMineSweeper},
		{Scheme: SchemeMineSweeper, SweepThreshold: 0.25, Helpers: 2, BufferCap: 64, UnmappedFactor: 4},
		{Scheme: SchemeMineSweeper, SweepThreshold: 1},      // manual-sweep idiom
		{Scheme: SchemeMineSweeper, PauseThreshold: -1},     // documented: disables pausing
		{Scheme: SchemeMineSweeper, MemoryBudget: 64 << 20}, // nil controller -> AIMD
		{Scheme: SchemeMineSweeper, MemoryBudget: 64 << 20, Controller: StaticPolicy()},
		{Scheme: SchemeMineSweeperMostlyConcurrent, MemoryBudget: 64 << 20},
		{Scheme: SchemeScudoMineSweeper, MemoryBudget: 64 << 20},
		{Scheme: SchemeMineSweeperDlmalloc, MemoryBudget: 64 << 20},
		{Scheme: SchemeMineSweeper, Controller: AIMDPolicy()}, // controller without budget: age signal only
		{Scheme: SchemeMineSweeper, DisableZeroing: true},     // zeroing ablation
		{Scheme: SchemeMarkUs, SweepThreshold: 0.25},
	}
	for _, cfg := range cases {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate rejected sane config %+v: %v", cfg, err)
		}
	}
}

func TestGovernedProcessExposesGovernor(t *testing.T) {
	p, err := NewProcess(Config{Scheme: SchemeMineSweeper, MemoryBudget: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	g := p.Governor()
	if g == nil {
		t.Fatal("governed process returned nil Governor")
	}
	if g.Policy != "aimd" {
		t.Fatalf("default governed policy %q, want aimd (nil Controller with a budget)", g.Policy)
	}
	if g.Budget != 256<<20 {
		t.Fatalf("governor budget %d, want %d", g.Budget, 256<<20)
	}
	if g.Knobs != g.Base {
		t.Fatalf("fresh governor knobs %+v differ from base %+v", g.Knobs, g.Base)
	}

	u, err := NewProcess(Config{Scheme: SchemeMineSweeper})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if u.Governor() != nil {
		t.Fatal("ungoverned process returned a Governor")
	}
}

// TestGovernorBaseCarriesOverrides checks that every knob override reaches
// the governed heap of each MineSweeper scheme, Scudo and dlmalloc
// substrates included: under StaticPolicy the plane's base knobs are the
// resolved core values. A negative PauseThreshold or RescanBudgetPages
// disables pausing or pre-cleaning, which the core config spells 0.
func TestGovernorBaseCarriesOverrides(t *testing.T) {
	def := core.DefaultConfig().Knobs()
	cases := []struct {
		name string
		cfg  Config
		want control.Knobs
	}{
		{"overrides",
			Config{SweepThreshold: 0.3, UnmappedFactor: 4, PauseThreshold: 1.5, Helpers: 3, RescanBudgetPages: 128},
			control.Knobs{SweepThreshold: 0.3, UnmappedFactor: 4, PauseThreshold: 1.5, Helpers: 3, RescanBudgetPages: 128}},
		{"negative disables",
			Config{PauseThreshold: -1, RescanBudgetPages: -1},
			control.Knobs{SweepThreshold: def.SweepThreshold, UnmappedFactor: def.UnmappedFactor, Helpers: def.Helpers}},
		{"defaults", Config{}, def},
	}
	for _, s := range []Scheme{
		SchemeMineSweeper, SchemeMineSweeperMostlyConcurrent,
		SchemeScudoMineSweeper, SchemeMineSweeperDlmalloc,
	} {
		for _, tc := range cases {
			t.Run(s.String()+"/"+tc.name, func(t *testing.T) {
				cfg := tc.cfg
				cfg.Scheme = s
				cfg.Controller = StaticPolicy()
				p, err := NewProcess(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				g := p.Governor()
				if g == nil {
					t.Fatal("governed process returned nil Governor")
				}
				if g.Policy != "static" {
					t.Errorf("policy %q, want static", g.Policy)
				}
				if g.Base != tc.want {
					t.Errorf("governor base %+v, want %+v", g.Base, tc.want)
				}
			})
		}
	}
}
