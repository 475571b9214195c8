// Package telemetry is the production observability layer: a hand-rolled,
// stdlib-only metrics registry with Prometheus text exposition, build
// information injected at link time, request-ID and span propagation
// through contexts, and a cycle-level sampling profiler for the simulation
// engine.
//
// The package deliberately depends on nothing inside the repository, so any
// layer (router, network, service) can use it without import cycles.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric and label names follow the Prometheus data model.
var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Counter is a monotonically increasing float64, safe for concurrent use.
type Counter struct {
	bits atomic.Uint64
	fn   func() float64 // non-nil for CounterFunc-backed counters
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v; negative deltas are a programming error.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("telemetry: counter decreased")
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c.fn != nil {
		return c.fn()
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a settable float64, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
	fn   func() float64 // non-nil for GaugeFunc-backed gauges
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current reading.
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into cumulative buckets, Prometheus-style:
// each bucket holds observations <= its upper bound, with an implicit +Inf
// bucket, plus the running sum and count.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the +Inf bucket
	sum    float64
	n      uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// snapshot copies the histogram state for exposition.
func (h *Histogram) snapshot() (bounds []float64, cum []uint64, sum float64, n uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	var running uint64
	for i, c := range h.counts {
		running += c
		cum[i] = running
	}
	return h.bounds, cum, h.sum, h.n
}

// metricType is the Prometheus family type.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// series is one labelled member of a family.
type series struct {
	labelValues []string
	c           *Counter
	g           *Gauge
	h           *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string
	bounds []float64 // histogram bucket bounds

	mu     sync.Mutex
	keys   []string // creation order
	series map[string]*series
}

// get returns (creating if needed) the series for the given label values.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	// The key is built in a stack buffer and looked up without a string of
	// its own; only a new series copies it.
	var buf [128]byte
	b := buf[:0]
	for i, v := range values {
		if i > 0 {
			b = append(b, 0)
		}
		b = append(b, v...)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[string(b)]; ok {
		return s
	}
	key := string(b)
	s := &series{labelValues: append([]string(nil), values...)}
	switch f.typ {
	case typeCounter:
		s.c = &Counter{}
	case typeGauge:
		s.g = &Gauge{}
	case typeHistogram:
		s.h = &Histogram{bounds: f.bounds, counts: make([]uint64, len(f.bounds)+1)}
	}
	f.series[key] = s
	f.keys = append(f.keys, key)
	return s
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration (the New*/…Func methods) panics on an
// invalid or conflicting name — those are programming errors; observation
// methods are safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
	gather []func()
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// OnGather registers fn to run at the start of every exposition, letting
// callers refresh func-free gauges from one consistent snapshot of their
// source (scheduler state, runtime.MemStats) per scrape.
func (r *Registry) OnGather(fn func()) {
	r.mu.Lock()
	r.gather = append(r.gather, fn)
	r.mu.Unlock()
}

// register validates and installs a new family.
func (r *Registry) register(name, help string, typ metricType, labels []string, bounds []float64) *family {
	if !metricNameRE.MatchString(name) {
		panic("telemetry: invalid metric name " + name)
	}
	for _, l := range labels {
		if !labelNameRE.MatchString(l) {
			panic("telemetry: invalid label name " + l + " on " + name)
		}
	}
	if typ == typeHistogram {
		if !sort.Float64sAreSorted(bounds) {
			panic("telemetry: histogram buckets must be sorted: " + name)
		}
	}
	f := &family{name: name, help: help, typ: typ, labels: labels,
		bounds: bounds, series: make(map[string]*series)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic("telemetry: duplicate metric " + name)
	}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	return f
}

// Counter registers an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, typeCounter, nil, nil).get(nil).c
}

// CounterFunc registers a counter whose value is read from fn at exposition
// time — the bridge for totals whose source of truth lives elsewhere.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, typeCounter, nil, nil).get(nil).c.fn = fn
}

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, typeCounter, labels, nil)}
}

// CounterVec is a labelled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on first
// use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).c }

// Gauge registers an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, typeGauge, nil, nil).get(nil).g
}

// GaugeFunc registers a gauge whose value is read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, typeGauge, nil, nil).get(nil).g.fn = fn
}

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, typeGauge, labels, nil)}
}

// GaugeVec is a labelled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).g }

// Histogram registers an unlabelled histogram over the given (sorted) bucket
// upper bounds; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	return r.register(name, help, typeHistogram, nil, append([]float64(nil), bounds...)).get(nil).h
}

// DurationBuckets is a general-purpose latency ladder in seconds, from
// 100µs to ~100s.
func DurationBuckets() []float64 {
	return []float64{1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 2.5, 10, 30, 100}
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4): a # HELP and # TYPE line per family followed by
// one sample line per series, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	gather := append([]func(){}, r.gather...)
	fams := append([]*family{}, r.fams...)
	r.mu.Unlock()
	for _, fn := range gather {
		fn()
	}
	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	f.mu.Lock()
	ordered := make([]*series, 0, len(f.keys))
	for _, k := range f.keys {
		ordered = append(ordered, f.series[k])
	}
	f.mu.Unlock()
	for _, s := range ordered {
		switch f.typ {
		case typeCounter:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, s.labelValues, ""), formatValue(s.c.Value()))
		case typeGauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, s.labelValues, ""), formatValue(s.g.Value()))
		case typeHistogram:
			bounds, cum, sum, n := s.h.snapshot()
			for i, ub := range bounds {
				le := formatValue(ub)
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.labelValues, le), cum[i])
			}
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.labelValues, "+Inf"), n)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, s.labelValues, ""), formatValue(sum))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, s.labelValues, ""), n)
		}
	}
}

// labelString renders {k="v",…}, appending an le label when non-empty;
// empty label sets render as nothing.
func labelString(names, values []string, le string) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
func escapeHelp(s string) string  { return helpEscaper.Replace(s) }

// formatValue renders a sample value: shortest round-trip representation,
// with +Inf/-Inf/NaN spelled the Prometheus way.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
