package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics (the "type 7" rule of R and NumPy). xs is not
// modified. An empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// fastTime is the estimator for repeated raw timings of identical work: the
// fast quartile (p25). On a shared host interference only ever adds time, so
// the fast side of the distribution is the repeatable one; p25 rather than
// the minimum keeps one lucky repetition from deciding the result.
func fastTime(xs []float64) float64 { return quantile(xs, 0.25) }

// flatten concatenates the rows of x.
func flatten(x [][]float64) []float64 {
	var out []float64
	for _, row := range x {
		out = append(out, row...)
	}
	return out
}

// round3 rounds to three significant digits; the allocation metrics, which
// repeat to within a few bytes per op, are printed through it so identical
// code prints identical values.
func round3(x float64) float64 {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	mag := math.Pow(10, math.Floor(math.Log10(math.Abs(x)))-2)
	return math.Round(x/mag) * mag
}

// medianMs is the median of per-op latencies in milliseconds.
func medianMs(lat []time.Duration) float64 {
	xs := make([]float64, len(lat))
	for i, d := range lat {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	return quantile(xs, 0.5)
}

// alternateNs times each fn once per repetition and returns the fast
// quartile of one call of each in nanoseconds. Functions timed in one call
// see the same host, so their ratio is steadier than either; the starting
// function rotates so that none is always the one a periodic garbage
// collection lands in.
func alternateNs(reps int, fns ...func()) []float64 {
	xs := make([][]float64, len(fns))
	for r := 0; r < reps; r++ {
		for j := range fns {
			i := (r + j) % len(fns)
			t0 := time.Now()
			fns[i]()
			xs[i] = append(xs[i], float64(time.Since(t0)))
		}
	}
	out := make([]float64, len(fns))
	for i := range out {
		out[i] = fastTime(xs[i])
	}
	return out
}

// repeatNs is alternateNs for one function.
func repeatNs(reps int, fn func()) float64 { return alternateNs(reps, fn)[0] }
