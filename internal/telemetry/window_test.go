package telemetry

import (
	"sync"
	"testing"
)

func TestWindowQuantile(t *testing.T) {
	w := NewWindow(100)
	if _, ok := w.Quantile(0.95); ok {
		t.Fatal("empty window reported a quantile")
	}
	for i := 1; i <= 100; i++ {
		w.Add(float64(i))
	}
	if v, ok := w.Quantile(0.5); !ok || v != 50 {
		t.Fatalf("p50 = %v %v, want 50", v, ok)
	}
	if v, _ := w.Quantile(0.95); v != 95 {
		t.Fatalf("p95 = %v, want 95", v)
	}
	if v, _ := w.Quantile(0); v != 1 {
		t.Fatalf("p0 = %v, want 1", v)
	}
	if v, _ := w.Quantile(1); v != 100 {
		t.Fatalf("p100 = %v, want 100", v)
	}
	// The coordinator's hedge window: ⌈0.95·256⌉ = 244, so p95 is the 244th
	// smallest sample, not the 243rd that indexing by q·(n−1) reads.
	w = NewWindow(256)
	for i := 1; i <= 256; i++ {
		w.Add(float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{-1, 1}, {0.5, 128}, {0.95, 244}, {0.99, 254}, {2, 256}} {
		if v, _ := w.Quantile(c.q); v != c.want {
			t.Errorf("256 samples: q%v = %v, want %v", c.q, v, c.want)
		}
	}
}

// TestWindowSlides pins the forgetting property that distinguishes a
// Window from the cumulative histograms: old samples stop contributing.
func TestWindowSlides(t *testing.T) {
	w := NewWindow(4)
	for i := 0; i < 4; i++ {
		w.Add(1000)
	}
	for i := 0; i < 4; i++ {
		w.Add(1) // displaces every 1000
	}
	if v, _ := w.Quantile(1); v != 1 {
		t.Fatalf("max after displacement = %v, want 1", v)
	}
	if w.Count() != 4 {
		t.Fatalf("count = %d, want 4", w.Count())
	}
}

func TestWindowConcurrent(t *testing.T) {
	w := NewWindow(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				w.Add(float64(i))
				w.Quantile(0.95)
			}
		}()
	}
	wg.Wait()
	if w.Count() != 64 {
		t.Fatalf("count = %d, want 64", w.Count())
	}
}
