package telemetry

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the number of power-of-two histogram buckets. Bucket b counts
// values v with 2^(b-1) <= v < 2^b (bucket 0 counts exactly zero), so the full
// uint64 range is covered: bits.Len64 of a value is its bucket index.
const NumBuckets = 65

// DefaultHistShards is the stripe count for histograms recorded on hot paths.
// Eight single-cache-line stripes keep concurrent mutators from bouncing one
// counter line between cores while costing only 8x64 words per histogram.
const DefaultHistShards = 8

// histShard is one stripe of counters. The padding keeps adjacent stripes on
// separate cache lines: Record is an atomic add on the owning thread's stripe
// and must not false-share with its neighbours.
type histShard struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Uint64
	_      [56]byte
}

// Histogram is a lock-free latency histogram with power-of-two buckets.
// Recording is one atomic increment plus one atomic add on a stripe selected
// by the caller (typically a thread ID), so hot paths never contend on a
// single counter line. Reads (Snapshot) merge the stripes; they are not
// linearisable against concurrent writers, which is fine for monitoring.
type Histogram struct {
	name   string
	unit   string
	shards []histShard
}

// NewHistogram returns a histogram with n stripes (n <= 0 means 1). Unit is a
// display string, typically "ns".
func NewHistogram(name, unit string, n int) *Histogram {
	if n <= 0 {
		n = 1
	}
	return &Histogram{name: name, unit: unit, shards: make([]histShard, n)}
}

// Name returns the histogram's registry name.
func (h *Histogram) Name() string { return h.name }

// Record counts v on stripe 0.
func (h *Histogram) Record(v uint64) { h.RecordShard(0, v) }

// RecordShard counts v on the stripe selected by hint (reduced modulo the
// stripe count, so any thread ID is a valid hint).
func (h *Histogram) RecordShard(hint int, v uint64) {
	if hint < 0 {
		hint = -hint
	}
	s := &h.shards[hint%len(h.shards)]
	s.counts[bits.Len64(v)].Add(1)
	s.sum.Add(v)
}

// HistogramSnapshot is a merged, immutable view of a histogram. Buckets[b]
// counts values in [2^(b-1), 2^b); Buckets[0] counts zeros.
//
// P50/P99/P999 are the pre-extracted tail quantiles (bucket upper bounds, see
// Quantile) so JSON consumers such as msstat read the percentiles directly
// instead of re-deriving them from the bucket array.
type HistogramSnapshot struct {
	Name    string             `json:"name"`
	Unit    string             `json:"unit"`
	Count   uint64             `json:"count"`
	Sum     uint64             `json:"sum"`
	P50     uint64             `json:"p50"`
	P99     uint64             `json:"p99"`
	P999    uint64             `json:"p999"`
	Buckets [NumBuckets]uint64 `json:"buckets"`
}

// Snapshot merges all stripes into one view.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Name: h.name, Unit: h.unit}
	for i := range h.shards {
		sh := &h.shards[i]
		s.Sum += sh.sum.Load()
		for b := 0; b < NumBuckets; b++ {
			n := sh.counts[b].Load()
			s.Buckets[b] += n
			s.Count += n
		}
	}
	s.P50, s.P99, s.P999 = s.Quantile(0.5), s.Quantile(0.99), s.Quantile(0.999)
	return s
}

// Mean returns the average recorded value, or 0 with no samples.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// BucketUpper returns the exclusive upper bound of bucket b (its inclusive
// lower bound is BucketUpper(b-1), and bucket 0 holds exactly zero).
func BucketUpper(b int) uint64 {
	if b <= 0 {
		return 1
	}
	if b >= 64 {
		return ^uint64(0)
	}
	return uint64(1) << b
}

// Quantile returns the upper bound of the bucket containing the q-quantile
// sample (0 <= q <= 1), or 0 with no samples. Power-of-two buckets bound the
// answer within 2x of the true quantile, which is the resolution the paper's
// latency discussion needs.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count-1))
	var seen uint64
	for b := 0; b < NumBuckets; b++ {
		seen += s.Buckets[b]
		if seen > rank {
			if b == 0 {
				return 0
			}
			return BucketUpper(b)
		}
	}
	return BucketUpper(NumBuckets - 1)
}

// Max returns the upper bound of the highest non-empty bucket, or 0.
func (s HistogramSnapshot) Max() uint64 {
	for b := NumBuckets - 1; b >= 0; b-- {
		if s.Buckets[b] != 0 {
			if b == 0 {
				return 0
			}
			return BucketUpper(b)
		}
	}
	return 0
}

// String summarises the snapshot on one line.
func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("%s: n=%d mean=%.0f%s p50<%d p99<%d max<%d",
		s.Name, s.Count, s.Mean(), s.Unit, s.Quantile(0.5), s.Quantile(0.99), s.Max())
}
