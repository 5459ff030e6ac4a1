package schemes

import (
	"testing"
	"time"

	"minesweeper/internal/control"
	"minesweeper/internal/core"
	"minesweeper/internal/mem"
	"minesweeper/internal/sim"
)

func TestAllKindsBuild(t *testing.T) {
	kinds := []Kind{Baseline, MineSweeper, MineSweeperMostly, MarkUs, FFMalloc, Scudo, Oscar, DangSan, PSweeper, CRCount, Dlmalloc, MineSweeperDlmalloc}
	for _, k := range kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			f := New(k)
			if f.Name != k.String() {
				t.Errorf("factory name %q != kind name %q", f.Name, k.String())
			}
			space := mem.NewAddressSpace()
			world := sim.NewWorld()
			h, err := f.Build(space, world)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			defer h.Shutdown()
			tid := h.RegisterThread()
			a, err := h.Malloc(tid, 128)
			if err != nil {
				t.Fatalf("Malloc: %v", err)
			}
			if err := h.Free(tid, a); err != nil {
				t.Fatalf("Free: %v", err)
			}
			if h.Stats().Mallocs != 1 {
				t.Errorf("Mallocs = %d, want 1", h.Stats().Mallocs)
			}
		})
	}
}

func TestBuildWithNilWorld(t *testing.T) {
	for _, k := range []Kind{MineSweeper, MineSweeperMostly, MarkUs} {
		h, err := New(k).Build(mem.NewAddressSpace(), nil)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		h.Shutdown()
	}
}

// TestFactoryWorldsDistinct builds two heaps from one Custom and one
// Governed factory and checks the second heap stops its own World, not the
// first's: a factory whose Build kept the first World it was given would
// leave the second heap's sweep waiting forever on the first World's mutator
// (the deadline turns that wait into a failure).
func TestFactoryWorldsDistinct(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Mode = core.MostlyConcurrent
	for _, f := range []Factory{
		Custom("custom-mostly", cfg),
		Governed("governed-mostly", cfg, 0, control.Static{}),
	} {
		t.Run(f.Name, func(t *testing.T) {
			w1, w2 := sim.NewWorld(), sim.NewWorld()
			h1, err := f.Build(mem.NewAddressSpace(), w1)
			if err != nil {
				t.Fatal(err)
			}
			defer h1.Shutdown()
			a2, err := f.Build(mem.NewAddressSpace(), w2)
			if err != nil {
				t.Fatal(err)
			}
			h2 := a2.(*core.Heap)
			defer h2.Shutdown()

			// A mutator of the first program that never reaches a
			// safepoint: a stop of w1 cannot complete while it is
			// registered.
			w1.Register()
			tid := h2.RegisterThread()
			p, err := h2.Malloc(tid, 64)
			if err != nil {
				t.Fatal(err)
			}
			if err := h2.Free(tid, p); err != nil {
				t.Fatal(err)
			}
			h2.FlushThread(tid)
			done := make(chan struct{})
			go func() {
				h2.Sweep()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Error("the second heap's sweep is stopping the first heap's World")
			}
			w1.Unregister()
			<-done
			h2.UnregisterThread(tid)
			if st := h2.Stats(); st.Sweeps != 1 || st.STWCycles == 0 {
				t.Errorf("second heap: %d sweeps, %d ns stopped; want one stop-the-world sweep",
					st.Sweeps, st.STWCycles)
			}
		})
	}
}

func TestKindStrings(t *testing.T) {
	if Kind(99).String() == "" {
		t.Error("unknown kind has empty string")
	}
	if numKinds != MineSweeperDlmalloc+1 {
		t.Errorf("numKinds = %d, want one past the last scheme", numKinds)
	}
	seen := map[string]bool{}
	for _, k := range []Kind{Baseline, MineSweeper, MineSweeperMostly, MarkUs, FFMalloc, Scudo, Oscar, DangSan, PSweeper, CRCount, Dlmalloc, MineSweeperDlmalloc} {
		s := k.String()
		if seen[s] {
			t.Errorf("duplicate scheme name %q", s)
		}
		seen[s] = true
		// Every kind round-trips through its name.
		f, err := ByName(s)
		if err != nil || f.Name != s {
			t.Errorf("ByName(%q) = %q, %v", s, f.Name, err)
		}
	}
	if got := len(Names()); got != len(seen) {
		t.Errorf("Names() lists %d schemes, want %d", got, len(seen))
	}
	if _, err := ByName("no-such-scheme"); err == nil {
		t.Error("ByName accepted an unknown name")
	}
}

// TestGovernedByName checks the CLI -governor path: the four MineSweeper
// schemes build a governed core heap under either policy name, the other
// eight schemes and unknown names or policies are refused.
func TestGovernedByName(t *testing.T) {
	for k := range numKinds {
		f, err := GovernedByName(k.String(), 64<<20, "static")
		if !k.IsMineSweeper() {
			if err == nil {
				t.Errorf("GovernedByName(%q) accepted a scheme without MineSweeper sweeps", k)
			}
			continue
		}
		if err != nil {
			t.Errorf("GovernedByName(%q): %v", k, err)
			continue
		}
		if want := k.String() + "-governed"; f.Name != want {
			t.Errorf("factory name %q, want %q", f.Name, want)
		}
		a, err := f.Build(mem.NewAddressSpace(), sim.NewWorld())
		if err != nil {
			t.Fatalf("%v: Build: %v", k, err)
		}
		h, ok := a.(*core.Heap)
		if !ok || h.Control() == nil {
			t.Errorf("%v: built %T without a control plane", k, a)
		} else if h.Control().PolicyName() != "static" || h.Control().Budget() != 64<<20 {
			t.Errorf("%v: plane %s with budget %d, want static with %d",
				k, h.Control().PolicyName(), h.Control().Budget(), 64<<20)
		}
		a.Shutdown()
	}
	if _, err := GovernedByName("minesweeper", 0, "no-such-policy"); err == nil {
		t.Error("GovernedByName accepted an unknown policy")
	}
	if _, err := GovernedByName("no-such-scheme", 0, ""); err == nil {
		t.Error("GovernedByName accepted an unknown scheme")
	}
}

func TestUnknownKindBuildFails(t *testing.T) {
	if _, err := New(numKinds).Build(mem.NewAddressSpace(), nil); err == nil {
		t.Error("Build of an unknown kind succeeded")
	}
}
