package stats

import (
	"math"
	"strings"
	"testing"

	"repro/internal/message"
)

func deliveredMsg(flits int, created, injected, delivered int64) *message.Message {
	m := message.NewMessage(1, message.M1, 0, 0, 1, flits, created)
	m.Injected = injected
	m.Delivered = delivered
	return m
}

func TestThroughputNormalization(t *testing.T) {
	c := NewCollector(64)
	c.Cycles = 1000
	for i := 0; i < 640; i++ {
		c.OnDelivered(deliveredMsg(10, 0, 1, 2), true, false)
	}
	// 6400 flits / 64 nodes / 1000 cycles = 0.1 flits/node/cycle.
	if got := c.Throughput(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("throughput = %v", got)
	}
}

func TestLatencyAccumulation(t *testing.T) {
	c := NewCollector(4)
	c.OnDelivered(deliveredMsg(4, 100, 110, 150), true, true)
	c.OnDelivered(deliveredMsg(4, 200, 205, 230), true, true)
	if got := c.AvgLatency(); math.Abs(got-40) > 1e-12 {
		t.Fatalf("avg latency = %v", got)
	}
	if c.LatencyMax != 50 {
		t.Fatalf("max latency = %d", c.LatencyMax)
	}
	if got := c.AvgQueueLatency(); math.Abs(got-7.5) > 1e-12 {
		t.Fatalf("queue latency = %v", got)
	}
}

func TestWindowGating(t *testing.T) {
	c := NewCollector(4)
	// Outside the window: throughput not counted, latency still sampled.
	c.OnDelivered(deliveredMsg(4, 100, 110, 150), false, true)
	if c.DeliveredFlits != 0 || c.LatencyCount != 1 {
		t.Fatalf("gating wrong: flits=%d latsamples=%d", c.DeliveredFlits, c.LatencyCount)
	}
	// Inside window, latency-ineligible.
	c.OnDelivered(deliveredMsg(4, 100, 110, 150), true, false)
	if c.DeliveredFlits != 4 || c.LatencyCount != 1 {
		t.Fatal("gating wrong on second call")
	}
}

func TestPerTypeAndSpecialCounts(t *testing.T) {
	c := NewCollector(4)
	m := deliveredMsg(4, 0, 1, 2)
	m.Type = message.M3
	c.OnDelivered(m, true, false)
	b := deliveredMsg(4, 0, 1, 2)
	b.Backoff = true
	c.OnDelivered(b, true, false)
	r := deliveredMsg(4, 0, 1, 2)
	r.Rescued = true
	c.OnDelivered(r, true, false)
	if c.PerTypeDelivered[message.M3] != 1 || c.BackoffDelivered != 1 || c.RescuedDelivered != 1 {
		t.Fatal("special counters wrong")
	}
}

func TestNormalizedDeadlocks(t *testing.T) {
	c := NewCollector(4)
	if c.NormalizedDeadlocks() != 0 {
		t.Fatal("empty collector nonzero")
	}
	for i := 0; i < 100; i++ {
		c.OnDelivered(deliveredMsg(1, 0, 1, 2), true, false)
	}
	c.Deflections = 2
	c.Rescues = 1
	c.CWGDeadlocks = 1
	if got := c.NormalizedDeadlocks(); math.Abs(got-0.04) > 1e-12 {
		t.Fatalf("normalized deadlocks = %v", got)
	}
}

func TestTxnStats(t *testing.T) {
	c := NewCollector(4)
	c.OnTxnComplete(100, 300)
	c.OnTxnComplete(100, 200)
	if got := c.AvgTxnLatency(); math.Abs(got-150) > 1e-12 {
		t.Fatalf("txn latency = %v", got)
	}
}

func TestSeriesSaturation(t *testing.T) {
	s := Series{Name: "x", Points: []Point{
		{Applied: 0.01, Summary: Summary{Throughput: 0.1, AvgLatency: 20}},
		{Applied: 0.02, Summary: Summary{Throughput: 0.25, AvgLatency: 40}},
		{Applied: 0.03, Summary: Summary{Throughput: 0.22, AvgLatency: 300}},
	}}
	if got := s.SaturationThroughput(); got != 0.25 {
		t.Fatalf("saturation = %v", got)
	}
}

func TestLatencyAtInterpolates(t *testing.T) {
	s := Series{Points: []Point{
		{Summary: Summary{Throughput: 0.1, AvgLatency: 20}},
		{Summary: Summary{Throughput: 0.2, AvgLatency: 40}},
	}}
	got, ok := s.LatencyAt(0.15)
	if !ok || math.Abs(got-30) > 1e-12 {
		t.Fatalf("LatencyAt = %v,%v", got, ok)
	}
	if _, ok := s.LatencyAt(0.5); ok {
		t.Fatal("interpolated beyond reach")
	}
}

func TestFormatBNFAndCSV(t *testing.T) {
	s := []Series{{Name: "PR", Points: []Point{{Applied: 0.01, Summary: Summary{Throughput: 0.1, AvgLatency: 25}}}}}
	txt := FormatBNF("Figure 8(a)", s)
	if !strings.Contains(txt, "Figure 8(a)") || !strings.Contains(txt, "PR") {
		t.Fatal("format missing pieces")
	}
	csv := CSV(s)
	if !strings.Contains(csv, "series,applied") || !strings.Contains(csv, "PR,0.01") {
		t.Fatalf("csv wrong: %s", csv)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0.05, 20)
	for i := 0; i < 90; i++ {
		h.Add(0.02) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Add(0.12) // third bucket
	}
	if math.Abs(h.Fraction(0)-0.9) > 1e-12 {
		t.Fatalf("fraction = %v", h.Fraction(0))
	}
	if math.Abs(h.CumulativeBelow(0.05)-0.9) > 1e-12 {
		t.Fatalf("cumulative = %v", h.CumulativeBelow(0.05))
	}
	if math.Abs(h.CumulativeBelow(0.15)-1.0) > 1e-12 {
		t.Fatal("cumulative below 0.15 wrong")
	}
	// Clamping.
	h.Add(99)
	if h.Counts[len(h.Counts)-1] != 1 {
		t.Fatal("overflow not clamped")
	}
	h.Add(-1)
	if h.Counts[0] != 91 {
		t.Fatal("underflow not clamped")
	}
	if !strings.Contains(h.Format("fft"), "fft") {
		t.Fatal("format missing label")
	}
}
