package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {10, 1}, {11, 2}, {90, 9}, {99, 10}, {100, 10}, {0.1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		value   float64
		pct     float64
		comment string
	}{
		{1, 1, 50, "one sample: the median"},
		{20, 10, 50, "rank 10 would sit at the median: report the median"},
		{21, 11, 50, "tail rank 11 is the median rank"},
		{22, 12, 100 * 12.0 / 22, "first n whose tail rank exceeds the median rank"},
		{40, 30, 75, "the p75 of a 40-job run"},
		{1000, 990, 99, "p99 of 1000"},
	} {
		v, pct := tail(seq(c.n))
		if v != c.value || pct != c.pct {
			t.Errorf("n=%d (%s): tail = %g at p%g, want %g at p%g", c.n, c.comment, v, pct, c.value, c.pct)
		}
		if beyond := c.n - int(v); c.pct > 50 && beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, tailBeyond)
		}
	}
}

func TestSummarizeDoesNotReorderInput(t *testing.T) {
	in := []float64{3, 1, 2}
	s := summarize(in)
	if s.N != 3 || s.P50 != 2 || s.Max != 3 {
		t.Errorf("summary %+v", s)
	}
	if in[0] != 3 || in[1] != 1 {
		t.Errorf("summarize sorted its input: %v", in)
	}
	if (summarize(nil) != Summary{}) {
		t.Error("empty summary not zero")
	}
}
