package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// HDRHistogram is a fixed-memory log-linear histogram in the spirit of
// HdrHistogram: values (nanoseconds, or any non-negative int64
// magnitude) land in one of hdrBuckets buckets laid out as hdrSubCount
// linear sub-buckets per power-of-two octave. Quantile interpolates
// inside the containing sub-bucket, so the relative error of any
// reported quantile is bounded by the sub-bucket width over the bucket
// base: 1/hdrSubCount (~3.1%) for values >= hdrSubCount ns, exact below
// that (the first hdrSubCount buckets are unit-width). It is the
// registry's one histogram type: latencies (Observe) and unitless
// magnitudes such as dirty-cone sizes (Record) alike.
//
// Observe/Record are lock-free: one atomic add per bucket plus count
// and sum. Snapshot copies the counts for merging across shards or
// processes (the load harness merges per-worker histograms).
const (
	hdrSubBits  = 5               // log2 of sub-buckets per octave
	hdrSubCount = 1 << hdrSubBits // 32 sub-buckets -> <=1/32 relative error
	hdrBuckets  = (63 - hdrSubBits + 1) * hdrSubCount
	// hdrMaxValue caps recorded values (~146 years in ns) so bucket
	// bounds never overflow int64.
	hdrMaxValue = int64(1) << 62
)

type HDRHistogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [hdrBuckets]atomic.Int64
}

// hdrIndex maps a non-negative value to its bucket.
func hdrIndex(v int64) int {
	if v < hdrSubCount {
		return int(v)
	}
	o := bits.Len64(uint64(v)) - 1 // position of the leading bit, >= hdrSubBits
	sub := int(v>>(uint(o)-hdrSubBits)) & (hdrSubCount - 1)
	return (o-hdrSubBits)*hdrSubCount + hdrSubCount + sub
}

// hdrBounds returns the half-open value range [low, high) of bucket i.
func hdrBounds(i int) (low, high int64) {
	if i < hdrSubCount {
		return int64(i), int64(i) + 1
	}
	block := i / hdrSubCount // >= 1
	o := uint(block - 1 + hdrSubBits)
	sub := int64(i % hdrSubCount)
	width := int64(1) << (o - hdrSubBits)
	low = (hdrSubCount + sub) << (o - hdrSubBits)
	return low, low + width
}

// Observe records one duration.
func (h *HDRHistogram) Observe(d time.Duration) { h.Record(d.Nanoseconds()) }

// Record records one non-negative magnitude (negative clamps to 0,
// values beyond hdrMaxValue clamp down to it).
func (h *HDRHistogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if v > hdrMaxValue {
		v = hdrMaxValue
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[hdrIndex(v)].Add(1)
}

// Count returns the number of observations.
func (h *HDRHistogram) Count() int64 { return h.count.Load() }

// Quantile returns the interpolated p-quantile (p in [0,1]) of the
// recorded values, in the recorded unit (nanoseconds for Observe).
// Returns 0 on an empty histogram.
func (h *HDRHistogram) Quantile(p float64) float64 {
	s := h.Snapshot()
	return s.Quantile(p)
}

// Snapshot copies the histogram state into a mergeable value.
func (h *HDRHistogram) Snapshot() HDRSnapshot {
	s := HDRSnapshot{Counts: make([]int64, hdrBuckets)}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
		s.Count += s.Counts[i]
	}
	// Count is derived from the buckets (not the count field) so a
	// snapshot taken mid-Record stays internally consistent.
	s.Sum = h.sum.Load()
	return s
}

// HDRSnapshot is a point-in-time copy of an HDRHistogram, mergeable
// across instances (shards, workers, processes) with Merge.
type HDRSnapshot struct {
	Count  int64
	Sum    int64
	Counts []int64
}

// Merge folds another snapshot into this one. Snapshots from any
// HDRHistogram share the fixed bucket layout, so merging is a
// bucketwise add.
func (s *HDRSnapshot) Merge(o HDRSnapshot) {
	if s.Counts == nil {
		s.Counts = make([]int64, hdrBuckets)
	}
	for i := range o.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Quantile returns the interpolated p-quantile of the snapshot.
func (s *HDRSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(math.Ceil(p * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	var seen int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if seen+c >= target {
			low, high := hdrBounds(i)
			frac := float64(target-seen) / float64(c)
			return float64(low) + frac*float64(high-low)
		}
		seen += c
	}
	_, high := hdrBounds(hdrBuckets - 1)
	return float64(high)
}

// Max returns the upper bound of the highest non-empty bucket (within
// one sub-bucket width of the true maximum), 0 when empty.
func (s *HDRSnapshot) Max() float64 {
	for i := len(s.Counts) - 1; i >= 0; i-- {
		if s.Counts[i] > 0 {
			_, high := hdrBounds(i)
			return float64(high)
		}
	}
	return 0
}

// Mean returns the arithmetic mean of the recorded values, 0 when
// empty.
func (s *HDRSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// HDRSummary is the JSON rendering of an HDR histogram, in
// milliseconds.
type HDRSummary struct {
	Count  int64   `json:"count"`
	SumMS  float64 `json:"sum_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p99_9_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Summary renders counts and interpolated quantiles, assuming the
// recorded unit was nanoseconds.
func (h *HDRHistogram) Summary() HDRSummary {
	s := h.Snapshot()
	return s.Summary()
}

// Summary renders a snapshot's counts and interpolated quantiles,
// assuming the recorded unit was nanoseconds. Summarizing a merged
// snapshot is how fleet-aggregate percentiles are produced: quantiles
// of merged bucket counts are the quantiles of the combined population
// (within the histogram's 1/32 relative error), which averaging
// per-node percentiles would not be.
func (s *HDRSnapshot) Summary() HDRSummary {
	return HDRSummary{
		Count:  s.Count,
		SumMS:  float64(s.Sum) / 1e6,
		P50MS:  s.Quantile(0.50) / 1e6,
		P90MS:  s.Quantile(0.90) / 1e6,
		P99MS:  s.Quantile(0.99) / 1e6,
		P999MS: s.Quantile(0.999) / 1e6,
		MaxMS:  s.Max() / 1e6,
	}
}
