// The A/B floor gates behind `make telemetry-overhead`, `make
// events-overhead` and `make governor-overhead`.
//
// Measuring "feature on vs off" with two separate `go test -bench` entries
// is unreliable on this class of host: the whole bench binary speeds up as
// the Go runtime's own heap warms (40%+ between the first and last run), so
// whichever benchmark runs second wins regardless of its real cost, and
// scheduler interference on a small shared box adds ±10% to any sub-second
// window. Each gate therefore keeps one long-lived process per configuration
// and alternates short fixed-iteration chunks between them: drift and load
// hit the two interleaved chunk streams equally, and taking each side's
// minimum chunk — its cleanest scheduling window — recovers the fast-path
// floor the limit is defined against. Several independent process pairs run
// in turn, because a single process can be persistently a percent or two
// slow from heap-layout luck; the floor is taken across all of a
// configuration's processes.
package minesweeper_test

import (
	"math"
	"os"
	"testing"
	"time"

	minesweeper "minesweeper"
)

// TestOverheadGates runs one interleaved A/B floor comparison per row and
// fails a row whose test-side floor exceeds limit times its base-side floor
// in every attempt. Skipped unless MS_OVERHEAD_GATE is set: each row spends
// a few seconds of wall-clock timing, and its verdict is only meaningful on
// an otherwise idle machine. Select one row with -run TestOverheadGates/<name>.
func TestOverheadGates(t *testing.T) {
	if os.Getenv("MS_OVERHEAD_GATE") == "" {
		t.Skip("set MS_OVERHEAD_GATE=1 (or run make telemetry-overhead, events-overhead or governor-overhead) to run the overhead gates")
	}
	ms := minesweeper.SchemeMineSweeper
	for _, g := range []struct {
		name       string
		base, test minesweeper.Config
		limit      float64
		attempts   int
	}{
		// Attaching the telemetry registry costs at most 3% on the 64-byte
		// malloc/free pair: the configurations differ only by Telemetry, so
		// the ratio isolates the per-op sampling decision.
		{name: "telemetry",
			base:  minesweeper.Config{Scheme: ms},
			test:  minesweeper.Config{Scheme: ms, Telemetry: true},
			limit: 1.03, attempts: 3},
		// What the flight recorder adds ON TOP of an observed process: its
		// sampled alloc/free events ride telemetry's 1-in-N countdown, so
		// both sides keep telemetry attached, and the unsampled fast path
		// only gains an atomic pointer load and branch per amortised check.
		// One more attempt than the telemetry row: the recorder's real cost
		// (~1%) sits closer to the limit than telemetry's (~0%), so a load
		// burst needs less luck to push one measurement over.
		{name: "events",
			base:  minesweeper.Config{Scheme: ms, Telemetry: true},
			test:  minesweeper.Config{Scheme: ms, Telemetry: true, Events: true},
			limit: 1.03, attempts: 4},
		// An idle control plane (a budget far above any pressure the chunk
		// loop can generate) costs at most 3%: knobs are read at sweep
		// boundaries and the amortised trigger check only, so this measures
		// the plane's standing cost, not any steering.
		{name: "governor",
			base:  minesweeper.Config{Scheme: ms},
			test:  minesweeper.Config{Scheme: ms, MemoryBudget: 1 << 40},
			limit: 1.03, attempts: 3},
	} {
		t.Run(g.name, func(t *testing.T) {
			const (
				opsPerChunk = 100_000
				chunks      = 30 // interleaved base/test chunks per process pair
				pairs       = 3  // independent process pairs
			)
			newThread := func(cfg minesweeper.Config) (*minesweeper.Process, *minesweeper.Thread) {
				p, err := minesweeper.NewProcess(cfg)
				if err != nil {
					t.Fatal(err)
				}
				th, err := p.NewThread()
				if err != nil {
					t.Fatal(err)
				}
				return p, th
			}
			chunk := func(th *minesweeper.Thread) float64 {
				start := time.Now()
				for i := 0; i < opsPerChunk; i++ {
					a, err := th.Malloc(64)
					if err != nil {
						t.Fatal(err)
					}
					if err := th.Free(a); err != nil {
						t.Fatal(err)
					}
				}
				return float64(time.Since(start).Nanoseconds()) / opsPerChunk
			}
			measure := func() (baseMin, testMin float64) {
				baseMin, testMin = math.Inf(1), math.Inf(1)
				for p := 0; p < pairs; p++ {
					pBase, thBase := newThread(g.base)
					pTest, thTest := newThread(g.test)
					// One discarded chunk each: the first chunks pay the
					// cold-heap cost (page faults, tcache fill) that later
					// chunks reuse.
					chunk(thBase)
					chunk(thTest)
					for c := 0; c < chunks; c++ {
						baseMin = math.Min(baseMin, chunk(thBase))
						testMin = math.Min(testMin, chunk(thTest))
					}
					thBase.Close()
					thTest.Close()
					pBase.Close()
					pTest.Close()
				}
				return baseMin, testMin
			}
			// The gate estimates a floor, so one attempt under the limit is
			// evidence enough — an over-limit attempt on a shared host is
			// more often a load burst that kept one side from ever seeing a
			// clean window than a real regression, which would inflate the
			// test-side floor of every attempt.
			var ratio float64
			for a := 0; a < g.attempts; a++ {
				baseMin, testMin := measure()
				ratio = testMin / baseMin
				t.Logf("attempt %d: %.1f ns/op (test) vs %.1f ns/op (base) = %.4fx (limit %.2fx, min over %d pairs x %d interleaved chunks of %d ops)",
					a, testMin, baseMin, ratio, g.limit, pairs, chunks, opsPerChunk)
				if ratio <= g.limit {
					return
				}
			}
			t.Errorf("%s overhead %.4fx exceeds the %.2fx limit in %d attempts", g.name, ratio, g.limit, g.attempts)
		})
	}
}
