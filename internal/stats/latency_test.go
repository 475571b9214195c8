package stats

import (
	"math"
	"sort"
	"testing"
)

func TestLatBucketMonotoneAndInverse(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 63, 127, 128, 129, 255, 256, 1000, 1 << 20, 1 << 40} {
		idx := latBucket(v)
		if idx < prev {
			t.Fatalf("bucket(%d)=%d below previous %d (not monotone)", v, idx, prev)
		}
		prev = idx
		lo := latBucketLow(idx)
		hi := latBucketLow(idx+1) - 1
		if v < lo || v > hi {
			t.Fatalf("v=%d maps to bucket %d spanning [%d,%d]", v, idx, lo, hi)
		}
	}
}

func TestLatencyHistExactBelow128(t *testing.T) {
	var h LatencyHist
	for v := int64(0); v < 128; v++ {
		h.Add(v)
	}
	if got := h.Quantile(0.5); got != 63 {
		t.Fatalf("p50 of 0..127 = %d, want 63", got)
	}
	if h.Max() != 127 || h.Count() != 128 {
		t.Fatalf("max=%d count=%d", h.Max(), h.Count())
	}
}

func TestLatencyHistQuantileError(t *testing.T) {
	// Uniform samples over a wide range: bucketed quantiles must stay
	// within 1.6% of exact.
	var h LatencyHist
	var vals []int64
	for i := 0; i < 10000; i++ {
		v := int64(i)*37 + 5
		h.Add(v)
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := vals[int(q*float64(len(vals)))-1]
		got := h.Quantile(q)
		if got < exact {
			t.Fatalf("q=%.2f estimate %d below exact %d (must be upper bound)", q, got, exact)
		}
		if err := float64(got-exact) / float64(exact); err > 0.016 {
			t.Fatalf("q=%.2f error %.4f exceeds 1.6%% (got %d, exact %d)", q, err, got, exact)
		}
	}
}

func TestLatencyHistIgnoresNegativesAndClampsToMax(t *testing.T) {
	var h LatencyHist
	h.Add(-1)
	h.Add(-100)
	if h.Count() != 0 {
		t.Fatalf("negative samples recorded: count=%d", h.Count())
	}
	h.Add(130) // bucket [130,131] at this octave — upper edge above the max
	if got := h.Quantile(0.99); got != 130 {
		t.Fatalf("single-sample p99 = %d, want clamp to max 130", got)
	}
	if (&LatencyHist{}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

func TestHistogramDropsNaNAndClampsInf(t *testing.T) {
	h := NewHistogram(0.05, 20)
	h.Add(math.NaN())
	if h.Total != 0 {
		t.Fatal("NaN sample recorded")
	}
	h.Add(math.Inf(1))
	if h.Total != 1 || h.Counts[len(h.Counts)-1] != 1 {
		t.Fatal("+Inf must clamp into the last bucket")
	}
	h.Add(-0.3)
	if h.Counts[0] != 1 {
		t.Fatal("negative must clamp into the first bucket")
	}
}

func TestCollectorPercentiles(t *testing.T) {
	c := NewCollector(4)
	c.Cycles = 100
	for lat := int64(1); lat <= 100; lat++ {
		c.Latencies.Add(lat)
	}
	if p50 := c.LatencyP50(); p50 != 50 {
		t.Fatalf("p50 = %d, want 50", p50)
	}
	if p99 := c.LatencyP99(); p99 != 99 {
		t.Fatalf("p99 = %d, want 99", p99)
	}
}

func TestLatencyAtUnsortedSeries(t *testing.T) {
	// A post-saturation dip makes Points unsorted by throughput; LatencyAt
	// must still interpolate correctly and must not reorder the series.
	s := Series{Points: []Point{
		{Summary: Summary{Throughput: 0.1, AvgLatency: 10}},
		{Summary: Summary{Throughput: 0.3, AvgLatency: 30}},
		{Summary: Summary{Throughput: 0.2, AvgLatency: 20}},
	}}
	lat, ok := s.LatencyAt(0.25)
	if !ok || lat != 25 {
		t.Fatalf("LatencyAt(0.25) = %v,%v want 25,true", lat, ok)
	}
	if s.Points[1].Throughput != 0.3 {
		t.Fatal("LatencyAt mutated the series order")
	}
}
