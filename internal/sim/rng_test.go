package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestRNGZeroSeedIsUsable(t *testing.T) {
	r := NewRNG(0)
	var allZero = true
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("zero seed produced a zero stream")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 500; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(99)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 4*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestBernoulliEdgeCases(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(6)
	const p, draws = 0.3, 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate = %v", p, got)
	}
}

func TestPickRespectsWeights(t *testing.T) {
	r := NewRNG(8)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[r.Pick(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("picked zero-weight bucket %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestPickPanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pick on all-zero weights did not panic")
		}
	}()
	NewRNG(1).Pick([]float64{0, 0})
}

func TestIntnExcept(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 5000; i++ {
		v := r.IntnExcept(8, 3)
		if v == 3 || v < 0 || v >= 8 {
			t.Fatalf("IntnExcept(8,3) = %d", v)
		}
	}
}

func TestIntnExceptCoversAllOthers(t *testing.T) {
	r := NewRNG(12)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		seen[r.IntnExcept(5, 0)] = true
	}
	for v := 1; v < 5; v++ {
		if !seen[v] {
			t.Errorf("value %d never drawn", v)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(20)
	child := parent.Split()
	// The child stream must not simply mirror the parent stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical draws between parent and child", same)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := NewRNG(30)
	f := func(seed uint64) bool {
		rr := NewRNG(seed)
		n := 1 + int(seed%20)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = i
		}
		rr.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		seen := make([]bool, n)
		for _, v := range vals {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

// TestThreshold53 holds the integer comparison FirstBelow makes to the float
// comparison Bernoulli makes, at the only place they could part: either side
// of the threshold. p = 2^-53 is the smallest rate at which anything but a
// zero draw fails, 1-2^-53 the largest below certainty, 1/3 is not a dyadic
// rational, and 0.001 and 0.012 are the rates the benchmark runs at.
func TestThreshold53(t *testing.T) {
	for _, p := range []float64{0x1p-53, 1e-300, 1e-9, 0.001, 0.012, 1.0 / 3, 0.5, 1 - 0x1p-53} {
		th := threshold53(p)
		if th == 0 || th > 1<<53 {
			t.Fatalf("threshold53(%g) = %d, outside (0, 2^53]", p, th)
		}
		for _, x := range []uint64{th - 1, th, th + 1} {
			if x >= 1<<53 {
				continue // not a value u>>11 can take
			}
			if got, want := x < th, float64(x)/(1<<53) < p; got != want {
				t.Errorf("p=%g x=%d: integer test %v, float test %v (threshold %d)", p, x, got, want, th)
			}
		}
	}
}

// FuzzFirstBelow holds the register-resident draw loop to the obvious one: up
// to max calls of Bernoulli(p) on a copy of the stream, stopping at the first
// success, must find the same index and leave the same state behind — for any
// seed, any p (the no-draw cases p <= 0 and p >= 1 included) and any max.
func FuzzFirstBelow(f *testing.F) {
	f.Add(uint64(1), 0.001, uint16(1024))
	f.Add(uint64(2), 0.012, uint16(1024))
	f.Add(uint64(3), 0.5, uint16(3))
	f.Add(uint64(4), 1e-9, uint16(1024))  // no success within the look-ahead
	f.Add(uint64(5), 0.0, uint16(1024))   // never, and no draws
	f.Add(uint64(6), 1.0, uint16(1024))   // at once, and no draws
	f.Add(uint64(7), -0.25, uint16(7))    // below the range
	f.Add(uint64(8), 1.5, uint16(7))      // above it
	f.Add(uint64(9), 0x1p-53, uint16(64)) // only a zero draw succeeds
	f.Add(uint64(10), 1-0x1p-53, uint16(64))
	f.Add(uint64(11), 1.0/3, uint16(0)) // no draws allowed
	f.Fuzz(func(t *testing.T, seed uint64, p float64, max uint16) {
		if math.IsNaN(p) {
			return // Config.Validate rejects NaN; Bernoulli draws for it, FirstBelow does not
		}
		got, ref := NewRNG(seed), NewRNG(seed)
		// Some way into the stream, so the state is not the seeding's.
		for i := 0; i < int(seed%5); i++ {
			got.Uint64()
			ref.Uint64()
		}
		want, wantHit := 0, false
		for ; want < int(max); want++ {
			if ref.Bernoulli(p) {
				wantHit = true
				break
			}
		}
		idx, hit := got.FirstBelow(p, int(max))
		if idx != want || hit != wantHit {
			t.Fatalf("FirstBelow(%g, %d) = %d, %v; %d Bernoulli calls say %d, %v", p, max, idx, hit, max, want, wantHit)
		}
		if got.s != ref.s {
			t.Fatalf("FirstBelow(%g, %d) left the stream at %x, Bernoulli calls at %x", p, max, got.s, ref.s)
		}
	})
}
