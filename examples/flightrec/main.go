// Flightrec: the always-on flight recorder catching an anomaly in the act.
//
// Run with:
//
//	go run ./examples/flightrec
//
// It runs an allocation churn under MineSweeper with the event recorder
// attached and a dump sink armed, then trips the recorder manually the way
// an anomaly trigger (STW over budget, governor entering Critical, RSS over
// budget) would: the last few seconds of every per-thread event ring —
// sweep-phase spans, quarantine drains, sampled mallocs and frees — are
// snapshotted into a self-describing binary dump. The dump is then rendered
// two ways: the merged text timeline (msstat -events) and a Chrome
// trace_event file loadable in chrome://tracing or ui.perfetto.dev.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	minesweeper "minesweeper"
	"minesweeper/internal/events"
)

func main() {
	proc, err := minesweeper.NewProcess(minesweeper.Config{
		Scheme:      minesweeper.SchemeMineSweeper,
		Synchronous: true, // deterministic sweep timing for the demo
		BufferCap:   1,
		Events:      true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer proc.Close()

	rec := proc.Events()
	if rec == nil {
		log.Fatal("flight recorder not attached")
	}

	// Arm the sink: any accepted Trip lands here with the captured window.
	dumpPath := filepath.Join(os.TempDir(), "flightrec-example.msev")
	rec.SetSink(func(d *events.Dump) {
		f, err := os.Create(dumpPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if _, err := d.WriteTo(f); err != nil {
			log.Fatal(err)
		}
	})

	th, err := proc.NewThread()
	if err != nil {
		log.Fatal(err)
	}
	defer th.Close()

	// Churn: allocate a working set and free most of it so sweeps trigger
	// naturally and the rings fill with spans, drains and sampled ops.
	var live []minesweeper.Addr
	for i := 0; i < 20000; i++ {
		p, err := th.Malloc(uint64(16 + i%2048))
		if err != nil {
			log.Fatal(err)
		}
		if err := th.Store(p, uint64(i)); err != nil {
			log.Fatal(err)
		}
		live = append(live, p)
		if len(live) > 256 {
			if err := th.Free(live[0]); err != nil {
				log.Fatal(err)
			}
			live = live[1:]
		}
	}
	for _, p := range live {
		if err := th.Free(p); err != nil {
			log.Fatal(err)
		}
	}
	proc.Sweep()

	// Trip the recorder the way an anomaly trigger would.
	if !rec.Trip(events.TripManual) {
		log.Fatal("trip rejected (no sink?)")
	}
	fmt.Printf("flight dump written to %s\n\n", dumpPath)

	// Read it back and render the timeline, as msstat -events does.
	f, err := os.Open(dumpPath)
	if err != nil {
		log.Fatal(err)
	}
	dump, err := events.ReadDump(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	if err := events.ValidateSpans(dump); err != nil {
		log.Fatal(err)
	}
	if err := events.WriteTimeline(os.Stdout, dump); err != nil {
		log.Fatal(err)
	}

	// And the Chrome trace, for chrome://tracing / Perfetto.
	tracePath := filepath.Join(os.TempDir(), "flightrec-example-trace.json")
	tf, err := os.Create(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	defer tf.Close()
	if err := events.WriteChromeTrace(tf, dump); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nchrome trace written to %s\n", tracePath)
}
