package uaf

import (
	"testing"

	"minesweeper/internal/alloc"
	"minesweeper/internal/core"
	"minesweeper/internal/jemalloc"
	"minesweeper/internal/mem"
)

// msConcurrentBuild mirrors msBuild but runs the pipelined mostly-concurrent
// sweep: concurrent mark against the lock-in snapshot, pre-clean rounds, and
// the soft-dirty stop-the-world re-scan. The World stays nil — the scenario
// is single-threaded, so there is nothing to park at a safepoint and the
// re-scan simply runs unstopped — and sweeps stay synchronous so forceSweeps
// is deterministic.
func msConcurrentBuild(space *mem.AddressSpace) alloc.Allocator {
	cfg := core.DefaultConfig()
	cfg.Mode = core.MostlyConcurrent
	cfg.RescanBudgetPages = core.DefaultRescanBudgetPages
	cfg.SweepThreshold = 1e18
	cfg.PauseThreshold = 0
	cfg.BufferCap = 1
	h, err := core.New(space, cfg, jemalloc.DefaultConfig())
	if err != nil {
		panic(err)
	}
	return h
}

// TestExploitPreventedByMineSweeperConcurrentMark proves the pipelined sweep
// offers the same protection as the synchronous configuration: the paper's
// UAF exploit scenario must end with zero spray hits and no attacker data
// reachable through the dangling pointer.
func TestExploitPreventedByMineSweeperConcurrentMark(t *testing.T) {
	prog, victim, attacker := setup(t, msConcurrentBuild)
	res, err := Run(prog, victim, attacker, DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == Exploited {
		t.Fatalf("pipelined MineSweeper failed to prevent the exploit (hits=%d)", res.SprayHits)
	}
	if res.SprayHits != 0 {
		t.Errorf("quarantined address handed to attacker %d times", res.SprayHits)
	}
	if res.Outcome == Benign && res.ReadVtable != 0 {
		t.Errorf("benign read = %#x, want 0 (zeroed)", res.ReadVtable)
	}
}

// TestLargeObjectExploitFaultsCleanlyConcurrentMark is the unmapped-large-
// object variant under the pipelined sweep: the dangling dispatch must fault,
// not read attacker-controlled memory.
func TestLargeObjectExploitFaultsCleanlyConcurrentMark(t *testing.T) {
	prog, victim, attacker := setup(t, msConcurrentBuild)
	sc := Scenario{ObjectSize: 1 << 20, SprayCount: 8, Sweeps: 0}
	res, err := Run(prog, victim, attacker, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Faulted {
		t.Errorf("outcome = %v, want clean fault (unmapped quarantined page)", res.Outcome)
	}
	if res.ReadVtable == MaliciousVtable {
		t.Error("dangling dispatch read attacker data under the pipelined sweep")
	}
}
