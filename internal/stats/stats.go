// Package stats collects and reports the quantities the paper plots:
// delivered throughput in flits/node/cycle, average message latency in
// cycles (queue waiting plus network time), transaction statistics,
// per-message-type counts, deflection/rescue counts, and the normalized
// number of deadlocks (deadlocks per delivered message). It also provides
// the Burton-Normal-Form series used by Figures 8-11 and simple text/CSV
// table rendering for the experiment harness.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/message"
)

// Collector accumulates a run's measurement-window statistics. The network
// gates calls by simulation phase: only events inside the measurement window
// are reported, matching the paper's steady-state methodology.
type Collector struct {
	Nodes  int
	Cycles int64

	InjectedFlits  int64
	InjectedMsgs   int64
	DeliveredFlits int64
	DeliveredMsgs  int64

	LatencySum   int64
	LatencyMax   int64
	LatencyCount int64

	// Latencies is the full message-latency distribution, reported as
	// p50/p95/p99 alongside the mean (avg/max alone hide the tail that
	// deadlock episodes create).
	Latencies LatencyHist

	QueueLatencySum int64

	TxnCompleted  int64
	TxnLatencySum int64

	GeneratedTxns int64

	PerTypeDelivered [message.NumTypes]int64
	BackoffDelivered int64
	RescuedDelivered int64

	DetectEvents int64
	Deflections  int64
	Rescues      int64
	CWGDeadlocks int64
	CWGScans     int64

	// Detection latency per the configured detector mode: cycles from
	// blocking onset (threshold streak start or probe birth) to the event
	// that dispatched recovery. Recorded over the whole run, not just the
	// measurement window — detection episodes straddle phase boundaries.
	DetectLatencySum   int64
	DetectLatencyCount int64
}

// NewCollector creates a collector for a network of the given endpoint
// count.
func NewCollector(nodes int) *Collector {
	return &Collector{Nodes: nodes}
}

// Checkpoint names the collector's state (see package ckpt). All of it is
// accounting, so the canonical state hash skips it whole.
func (c *Collector) Checkpoint(k *ckpt.C) {
	if !k.Unhashed() {
		return
	}
	ckpt.Int(k, &c.Nodes)
	for _, p := range []*int64{&c.Cycles,
		&c.InjectedFlits, &c.InjectedMsgs, &c.DeliveredFlits, &c.DeliveredMsgs,
		&c.LatencySum, &c.LatencyMax, &c.LatencyCount, &c.QueueLatencySum,
		&c.TxnCompleted, &c.TxnLatencySum, &c.GeneratedTxns,
		&c.BackoffDelivered, &c.RescuedDelivered,
		&c.DetectEvents, &c.Deflections, &c.Rescues, &c.CWGDeadlocks, &c.CWGScans,
		&c.DetectLatencySum, &c.DetectLatencyCount,
		&c.Latencies.total, &c.Latencies.max} {
		ckpt.Int(k, p)
	}
	for i := range c.PerTypeDelivered {
		ckpt.Int(k, &c.PerTypeDelivered[i])
	}
	ckpt.Slice(k, &c.Latencies.counts, func(n *int64) { ckpt.Int(k, n) })
}

// OnInjected records a message entering the network.
func (c *Collector) OnInjected(m *message.Message) {
	c.InjectedFlits += int64(m.Flits)
	c.InjectedMsgs++
}

// OnDelivered records a fully arrived message. inWindow gates throughput
// accounting (delivery happened inside the measurement window);
// latencyEligible gates latency sampling (the message was created inside the
// window, so its latency is attributable to steady state even if delivery
// slipped into the drain phase).
func (c *Collector) OnDelivered(m *message.Message, inWindow, latencyEligible bool) {
	if inWindow {
		c.DeliveredFlits += int64(m.Flits)
		c.DeliveredMsgs++
		if m.Backoff {
			c.BackoffDelivered++
		} else {
			c.PerTypeDelivered[m.Type]++
		}
		if m.Rescued {
			c.RescuedDelivered++
		}
	}
	if latencyEligible {
		if lat := m.TotalLatency(); lat >= 0 {
			c.LatencySum += lat
			c.LatencyCount++
			if lat > c.LatencyMax {
				c.LatencyMax = lat
			}
			c.Latencies.Add(lat)
		}
		if ql := m.QueueLatency(); ql >= 0 {
			c.QueueLatencySum += ql
		}
	}
}

// OnTxnComplete records a finished transaction's latency.
func (c *Collector) OnTxnComplete(created, finished int64) {
	c.TxnCompleted++
	c.TxnLatencySum += finished - created
}

// Throughput returns delivered traffic normalized to flits/node/cycle.
func (c *Collector) Throughput() float64 {
	if c.Cycles == 0 || c.Nodes == 0 {
		return 0
	}
	return float64(c.DeliveredFlits) / float64(c.Nodes) / float64(c.Cycles)
}

// AvgLatency returns the mean message latency in cycles.
func (c *Collector) AvgLatency() float64 {
	if c.LatencyCount == 0 {
		return 0
	}
	return float64(c.LatencySum) / float64(c.LatencyCount)
}

// AvgDetectLatency returns the mean detection latency in cycles, 0 before
// the first detection.
func (c *Collector) AvgDetectLatency() float64 {
	if c.DetectLatencyCount == 0 {
		return 0
	}
	return float64(c.DetectLatencySum) / float64(c.DetectLatencyCount)
}

// LatencyP50, LatencyP95 and LatencyP99 return message-latency percentiles
// from the recorded distribution (upper bucket-edge estimates, error below
// 1.6%).
func (c *Collector) LatencyP50() int64 { return c.Latencies.P50() }
func (c *Collector) LatencyP95() int64 { return c.Latencies.P95() }
func (c *Collector) LatencyP99() int64 { return c.Latencies.P99() }

// AvgQueueLatency returns mean source-queue waiting time.
func (c *Collector) AvgQueueLatency() float64 {
	if c.LatencyCount == 0 {
		return 0
	}
	return float64(c.QueueLatencySum) / float64(c.LatencyCount)
}

// AvgTxnLatency returns the mean transaction completion time.
func (c *Collector) AvgTxnLatency() float64 {
	if c.TxnCompleted == 0 {
		return 0
	}
	return float64(c.TxnLatencySum) / float64(c.TxnCompleted)
}

// NormalizedDeadlocks returns the paper's deadlock-frequency metric: the
// ratio of detected deadlocks to delivered messages.
func (c *Collector) NormalizedDeadlocks() float64 {
	if c.DeliveredMsgs == 0 {
		return 0
	}
	return float64(c.CWGDeadlocks+c.Deflections+c.Rescues) / float64(c.DeliveredMsgs)
}

// Summary is what a finished run reports: the collector's derived quantities
// under the names every front end uses. The JSON keys are simsvc's wire
// format; detection latency is not served, so it stays off the wire.
type Summary struct {
	// Throughput is delivered traffic in flits/node/cycle over the
	// measurement window.
	Throughput float64 `json:"throughput"`
	// AvgLatency is mean message latency in cycles, queue waiting
	// included.
	AvgLatency float64 `json:"avg_latency"`
	// LatencyP50, LatencyP95 and LatencyP99 are message-latency percentiles
	// in cycles (upper bucket-edge estimates, error below 1.6%). The mean
	// alone hides the tail that deadlock episodes create.
	LatencyP50 int64 `json:"latency_p50"`
	LatencyP95 int64 `json:"latency_p95"`
	LatencyP99 int64 `json:"latency_p99"`
	// AvgTxnLatency is mean transaction completion time in cycles.
	AvgTxnLatency float64 `json:"avg_txn_latency"`
	// DeliveredMessages and DeliveredFlits count measured deliveries.
	DeliveredMessages int64 `json:"delivered_messages"`
	DeliveredFlits    int64 `json:"delivered_flits"`
	// Transactions counts completed transactions.
	Transactions int64 `json:"transactions"`
	// DetectEvents, Deflections and Rescues count recovery activity.
	DetectEvents int64 `json:"detect_events"`
	Deflections  int64 `json:"deflections"`
	Rescues      int64 `json:"rescues"`
	// AvgDetectLatency is mean detection latency in cycles under the
	// configured detector mode (blocking onset to recovery dispatch), with
	// DetectLatencySamples the number of detections it averages.
	AvgDetectLatency     float64 `json:"-"`
	DetectLatencySamples int64   `json:"-"`
	// Deadlocks is the CWG-observed knot count; NormalizedDeadlocks is the
	// paper's deadlocks-per-delivered-message metric.
	Deadlocks           int64   `json:"deadlocks"`
	NormalizedDeadlocks float64 `json:"normalized_deadlocks"`
	// Drained reports whether all work completed before the drain budget
	// expired.
	Drained bool `json:"drained"`
}

// Summary derives the run's report; drained is the network's quiescence at
// the end of the run, which the collector cannot see.
func (c *Collector) Summary(drained bool) Summary {
	return Summary{
		Throughput:           c.Throughput(),
		AvgLatency:           c.AvgLatency(),
		LatencyP50:           c.LatencyP50(),
		LatencyP95:           c.LatencyP95(),
		LatencyP99:           c.LatencyP99(),
		AvgTxnLatency:        c.AvgTxnLatency(),
		DeliveredMessages:    c.DeliveredMsgs,
		DeliveredFlits:       c.DeliveredFlits,
		Transactions:         c.TxnCompleted,
		DetectEvents:         c.DetectEvents,
		Deflections:          c.Deflections,
		Rescues:              c.Rescues,
		AvgDetectLatency:     c.AvgDetectLatency(),
		DetectLatencySamples: c.DetectLatencyCount,
		Deadlocks:            c.CWGDeadlocks,
		NormalizedDeadlocks:  c.NormalizedDeadlocks(),
		Drained:              drained,
	}
}

// Point is one Burton-Normal-Form sample: the applied load (request
// generation probability per node per cycle) and the run's summary, whose
// throughput (x) and average latency (y) are the plotted pair.
type Point struct {
	Applied float64
	Summary
}

// Series is one curve of a BNF plot (one scheme configuration).
type Series struct {
	Name   string
	Points []Point
}

// SaturationThroughput returns the maximum throughput observed along the
// series — the standard scalar summary of a BNF curve.
func (s Series) SaturationThroughput() float64 {
	max := 0.0
	for _, p := range s.Points {
		if p.Throughput > max {
			max = p.Throughput
		}
	}
	return max
}

// LatencyAt interpolates the series' latency at a given throughput, or
// returns ok=false if the throughput exceeds the series' reach. Points are
// normally generated in ascending-throughput order (sweeps stop just past
// saturation), so the already-sorted fast path avoids the per-call
// copy-and-sort; only a post-saturation throughput dip pays for a sorted
// copy.
func (s Series) LatencyAt(throughput float64) (float64, bool) {
	byThroughput := func(p []Point) func(i, j int) bool {
		return func(i, j int) bool { return p[i].Throughput < p[j].Throughput }
	}
	pts := s.Points
	if !sort.SliceIsSorted(pts, byThroughput(pts)) {
		pts = append([]Point(nil), s.Points...)
		sort.Slice(pts, byThroughput(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Throughput >= throughput {
			lo, hi := pts[i-1], pts[i]
			if hi.Throughput == lo.Throughput {
				return hi.AvgLatency, true
			}
			f := (throughput - lo.Throughput) / (hi.Throughput - lo.Throughput)
			return lo.AvgLatency + f*(hi.AvgLatency-lo.AvgLatency), true
		}
	}
	return 0, false
}

// FormatBNF renders a set of series as an aligned text table, one row per
// applied-load point, matching the figures' axes (throughput in
// flits/node/cycle, latency in cycles).
func FormatBNF(title string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, s := range series {
		fmt.Fprintf(&b, "  %s (saturation %.4f flits/node/cycle)\n", s.Name, s.SaturationThroughput())
		fmt.Fprintf(&b, "    %10s %12s %12s %8s %8s %10s %9s %9s\n", "applied", "throughput", "latency", "p50", "p99", "txn-lat", "deflect", "rescue")
		for _, p := range s.Points {
			fmt.Fprintf(&b, "    %10.5f %12.5f %12.1f %8d %8d %10.1f %9d %9d\n",
				p.Applied, p.Throughput, p.AvgLatency, p.LatencyP50, p.LatencyP99, p.AvgTxnLatency, p.Deflections, p.Rescues)
		}
	}
	return b.String()
}

// CSV renders the series in long form for external plotting.
func CSV(series []Series) string {
	var b strings.Builder
	b.WriteString("series,applied,throughput,latency,latency_p50,latency_p95,latency_p99,txn_latency,deflections,rescues,deadlocks,delivered\n")
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s,%g,%g,%g,%d,%d,%d,%g,%d,%d,%d,%d\n",
				s.Name, p.Applied, p.Throughput, p.AvgLatency, p.LatencyP50, p.LatencyP95, p.LatencyP99, p.AvgTxnLatency, p.Deflections, p.Rescues, p.Deadlocks, p.DeliveredMessages)
		}
	}
	return b.String()
}

// Histogram is a fixed-bucket histogram used for the load-rate distributions
// of Figure 6 (bucket width in the figure: 5% of capacity).
type Histogram struct {
	BucketWidth float64
	Counts      []int64
	Total       int64
}

// NewHistogram creates a histogram with the given bucket width covering
// [0, width*buckets).
func NewHistogram(width float64, buckets int) *Histogram {
	return &Histogram{BucketWidth: width, Counts: make([]int64, buckets)}
}

// Add records a sample; values beyond the last bucket clamp into it,
// negative values clamp into the first, and NaN samples are dropped (a
// NaN's float-to-int conversion is undefined and would corrupt a bucket
// index).
func (h *Histogram) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	idx := 0
	if v > 0 {
		// Compare in float space before converting: a huge or +Inf sample
		// would overflow the int conversion.
		if f := v / h.BucketWidth; f >= float64(len(h.Counts)) {
			idx = len(h.Counts) - 1
		} else {
			idx = int(f)
		}
	}
	h.Counts[idx]++
	h.Total++
}

// Fraction returns the share of samples in bucket i.
func (h *Histogram) Fraction(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}

// CumulativeBelow returns the share of samples below value v.
func (h *Histogram) CumulativeBelow(v float64) float64 {
	if h.Total == 0 {
		return 0
	}
	var sum int64
	const eps = 1e-9
	for i := range h.Counts {
		hi := float64(i+1) * h.BucketWidth
		if hi <= v+eps {
			sum += h.Counts[i]
		}
	}
	return float64(sum) / float64(h.Total)
}

// Format renders the histogram as percentage rows.
func (h *Histogram) Format(label string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d)\n", label, h.Total)
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		fmt.Fprintf(&b, "  [%5.1f%%,%5.1f%%): %6.2f%%\n",
			100*float64(i)*h.BucketWidth, 100*float64(i+1)*h.BucketWidth, 100*h.Fraction(i))
	}
	return b.String()
}
