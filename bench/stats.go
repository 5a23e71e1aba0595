package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above a reported tail
// percentile: a percentile resting on fewer is one outlier's value.
const tailBeyond = 10

// Summary is the latency digest of one run's measured operations.
type Summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_ms"`
	Tail    float64 `json:"tail_ms"`
	TailPct float64 `json:"tail_pct"`
	Max     float64 `json:"max_ms"`
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

// tail returns the highest nearest-rank percentile that still has at
// least tailBeyond samples above its rank, with that percentile. It
// never reports below the median: a run too short for a tail above the
// median reports the median (and says so through pct = 50).
func tail(sorted []float64) (value, pct float64) {
	n := len(sorted)
	medianRank := int(math.Ceil(0.5 * float64(n)))
	rank := n - tailBeyond
	if rank <= medianRank {
		return percentile(sorted, 50), 50
	}
	return sorted[rank-1], 100 * float64(rank) / float64(n)
}

// summarize sorts a copy of the samples (ms) and digests them.
func summarize(ms []float64) Summary {
	if len(ms) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	t, pct := tail(s)
	return Summary{N: len(s), P50: percentile(s, 50), Tail: t, TailPct: pct, Max: s[len(s)-1]}
}

// summarizeClasses digests each request class's samples.
func summarizeClasses(classes map[string][]float64) map[string]Summary {
	out := make(map[string]Summary, len(classes))
	for class, ms := range classes {
		out[class] = summarize(ms)
	}
	return out
}

// median of a sample set (nearest rank), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// medianIndex is the index of the sample that is the median.
func medianIndex(xs []float64) int {
	m := median(xs)
	for i, x := range xs {
		if x == m {
			return i
		}
	}
	return 0
}
