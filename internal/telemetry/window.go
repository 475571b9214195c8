package telemetry

import (
	"math"
	"sort"
	"sync"
)

// Window is a fixed-capacity sliding window of float64 samples with
// quantile readout. Unlike the cumulative log-bucketed histograms in
// internal/stats, a Window forgets: only the most recent capacity samples
// contribute, so a quantile tracks the service's current behavior rather
// than its lifetime average. The ring coordinator derives its hedge delay
// from the p95 of recent request latencies — a figure that must adapt when
// the cluster slows down or recovers.
type Window struct {
	mu   sync.Mutex
	buf  []float64
	n    int // live samples (≤ cap(buf))
	next int // ring write position
}

// NewWindow returns a window keeping the last capacity samples (minimum 1).
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		capacity = 1
	}
	return &Window{buf: make([]float64, capacity)}
}

// Add records one sample, displacing the oldest once full.
func (w *Window) Add(v float64) {
	w.mu.Lock()
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.mu.Unlock()
}

// Count reports the live sample count.
func (w *Window) Count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Quantile returns the q-th quantile by nearest rank: the ⌈q·n⌉-th smallest
// of the n live samples, q clamped to [0, 1] (q = 0 reads the smallest); ok
// is false while the window is empty.
func (w *Window) Quantile(q float64) (v float64, ok bool) {
	w.mu.Lock()
	if w.n == 0 {
		w.mu.Unlock()
		return 0, false
	}
	s := make([]float64, w.n)
	copy(s, w.buf[:w.n])
	w.mu.Unlock()
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(idx, 0), len(s)-1)], true
}
