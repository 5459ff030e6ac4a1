package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"minesweeper/internal/events"
)

// TestWatchEventsPrefix pins the -watch line format: a single target's lines
// carry no address prefix, and with several targets each line starts with
// its target's address, padded to the widest.
func TestWatchEventsPrefix(t *testing.T) {
	st := events.State{NowNanos: 1_500_000_000, SweepsTotal: 3, Phase: "mark", Trips: 1,
		Batches: []events.RingBatch{{Events: []events.Event{{Nanos: 7}, {Nanos: 9}}}}}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(st)
	}))
	defer srv.Close()
	line := formatState(st, 2)

	if got := captureStdout(t, func() { watchEvents([]string{srv.URL}, 0, 1) }); got != line+"\n" {
		t.Errorf("one target:\n got %q\nwant %q", got, line+"\n")
	}
	other := srv.URL + "/"
	want := fmt.Sprintf("%-*s  %s\n%s  %s\n", len(other), srv.URL, line, other, line)
	if got := captureStdout(t, func() { watchEvents([]string{srv.URL, other}, 0, 1) }); got != want {
		t.Errorf("two targets:\n got %q\nwant %q", got, want)
	}
}

// captureStdout returns what f printed to standard output.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	f()
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
