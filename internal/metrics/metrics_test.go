package metrics

import (
	"math"
	"math/big"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestGeomean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 1, 1}, 1},
		{[]float64{2, 8}, 4},
		{[]float64{1.1}, 1.1},
		{nil, 0},
	}
	for _, c := range cases {
		if got := Geomean(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Geomean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Geomean([]float64{1, -1})) {
		t.Error("Geomean with nonpositive input should be NaN")
	}
}

func TestSampler(t *testing.T) {
	var v atomic.Uint64
	v.Store(100)
	s := NewSampler(v.Load, time.Millisecond)
	s.Start()
	time.Sleep(5 * time.Millisecond)
	v.Store(300)
	time.Sleep(5 * time.Millisecond)
	s.Stop()
	if n := len(s.Samples()); n < 3 {
		t.Fatalf("only %d samples", n)
	}
	if s.Peak() != 300 {
		t.Errorf("Peak = %d, want 300", s.Peak())
	}
	avg := s.Avg()
	if avg < 100 || avg > 300 {
		t.Errorf("Avg = %d, want within [100,300]", avg)
	}
	// Sample timestamps are monotonically nondecreasing.
	prev := time.Duration(-1)
	for _, smp := range s.Samples() {
		if smp.At < prev {
			t.Fatal("timestamps not monotonic")
		}
		prev = smp.At
	}
}

func TestSamplerStopWithoutStart(t *testing.T) {
	// Regression: Stop without Start used to close a nil channel and panic.
	s := NewSampler(func() uint64 { return 1 }, time.Millisecond)
	s.Stop()
	if n := len(s.Samples()); n != 0 {
		t.Errorf("Stop without Start recorded %d samples, want 0", n)
	}
	// Repeated Stop after a real Start/Stop cycle is also safe and must not
	// append extra final samples.
	s.Start()
	s.Stop()
	n := len(s.Samples())
	s.Stop()
	s.Stop()
	if got := len(s.Samples()); got != n {
		t.Errorf("repeated Stop grew samples from %d to %d", n, got)
	}
	// The sampler can start again after stopping.
	s.Start()
	s.Stop()
	if got := len(s.Samples()); got <= n {
		t.Errorf("restart recorded no samples (still %d)", got)
	}
}

func TestSamplerEmptyAvgPeak(t *testing.T) {
	s := NewSampler(func() uint64 { return 1 }, time.Hour)
	if s.Avg() != 0 || s.Peak() != 0 {
		t.Error("empty sampler Avg/Peak should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("bench", "slowdown")
	tb.AddRow("xalancbmk", "1.73")
	tb.AddRow("gcc", "1.17")
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "bench") {
		t.Errorf("header missing: %q", lines[0])
	}
	if !strings.Contains(out, "xalancbmk  1.73") {
		t.Errorf("misaligned row:\n%s", out)
	}
}

func TestTableSortKeepsGeomeanLast(t *testing.T) {
	tb := NewTable("bench", "x")
	tb.AddRow("geomean", "1.05")
	tb.AddRow("zeta", "1")
	tb.AddRow("alpha", "2")
	tb.SortRows()
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.HasPrefix(lines[2], "alpha") || !strings.HasPrefix(lines[len(lines)-1], "geomean") {
		t.Errorf("sort order wrong:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	if FmtRatio(1.0544) != "1.054" {
		t.Errorf("FmtRatio = %q", FmtRatio(1.0544))
	}
	if FmtPct(1.054) != "+5.4%" {
		t.Errorf("FmtPct = %q", FmtPct(1.054))
	}
	if FmtMiB(1<<20) != "1.0 MiB" {
		t.Errorf("FmtMiB = %q", FmtMiB(1<<20))
	}
}

func TestPaperDataSanity(t *testing.T) {
	if len(PaperSpec2006) != 19 {
		t.Errorf("PaperSpec2006 has %d benchmarks, want 19", len(PaperSpec2006))
	}
	for name, b := range PaperSpec2006 {
		if b.MSTime < 1 || b.MarkUsTime < 1 || b.FFTime < 0.99 {
			t.Errorf("%s: implausible slowdowns %+v", name, b)
		}
	}
	// Headline identities from the paper's text.
	if PaperHeadline.MSSlowdown != 1.054 || PaperHeadline.MSMemory != 1.111 {
		t.Error("headline MineSweeper numbers corrupted")
	}
	if PaperSpec2006["xalancbmk"].MSTime != 1.73 {
		t.Error("xalancbmk worst case corrupted")
	}
	if len(PaperCVETrends) != 8 {
		t.Error("CVE trend years wrong")
	}
}

func TestParseSize(t *testing.T) {
	for _, c := range []struct {
		in   string
		want uint64
		err  bool
	}{
		{"", 0, false},
		{"4096", 4096, false},
		{"64M", 64 << 20, false},
		{"1g", 1 << 30, false},
		{"16777215T", 16777215 << 40, false},
		{"16777216T", 0, true}, // 2^64: wrapped to 0 ("no budget") before
		{"18446744073709551615", math.MaxUint64, false},
		{"18446744073709551615K", 0, true},
		{"-1M", 0, true},
		{"M", 0, true},
	} {
		got, err := ParseSize(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d, error %v", c.in, got, err, c.want, c.err)
		}
	}
}

// FuzzParseSize: ParseSize never panics, and every size it accepts is the
// digits times the suffix's multiplier, exactly, without wrapping.
func FuzzParseSize(f *testing.F) {
	for _, s := range []string{"", "0", "64M", "1G", "3t", "16777216T", "18446744073709551615", "9k", "x"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseSize(s)
		if err != nil || s == "" {
			return
		}
		digits, mult := s, new(big.Int).SetUint64(1)
		switch s[len(s)-1] {
		case 'k', 'K':
			digits, mult = s[:len(s)-1], big.NewInt(1<<10)
		case 'm', 'M':
			digits, mult = s[:len(s)-1], big.NewInt(1<<20)
		case 'g', 'G':
			digits, mult = s[:len(s)-1], big.NewInt(1<<30)
		case 't', 'T':
			digits, mult = s[:len(s)-1], big.NewInt(1<<40)
		}
		n, err := strconv.ParseUint(digits, 10, 64)
		if err != nil {
			t.Fatalf("ParseSize(%q) = %d accepted digits %q that do not parse: %v", s, got, digits, err)
		}
		want := new(big.Int).Mul(new(big.Int).SetUint64(n), mult)
		if !want.IsUint64() || want.Uint64() != got {
			t.Fatalf("ParseSize(%q) = %d, want %s", s, got, want)
		}
	})
}
