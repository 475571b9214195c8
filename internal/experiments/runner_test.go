package experiments

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/protocol"
	"repro/internal/stats"
)

// runnerScale is a miniature ladder for determinism tests: big enough to
// exercise the saturation stop rule, small enough to run serially twice.
var runnerScale = Scale{
	Name: "runner-test", Warmup: 100, Measure: 400, MaxDrain: 600,
	Rates:       []float64{0.004, 0.010, 0.016, 0.020},
	TraceCycles: 4000,
}

// TestParallelSweepDeterminism checks the tentpole guarantee: a figure
// regenerated with 8 workers is byte-identical to the serial run — same
// report text, same CSV — because every simulation point owns its own
// network and RNG streams and results are gathered in input order.
func TestParallelSweepDeterminism(t *testing.T) {
	prev := Parallelism()
	t.Cleanup(func() { SetParallelism(prev) })

	run := func(j int) (string, string) {
		SetParallelism(j)
		var buf bytes.Buffer
		series, err := FigBNF(context.Background(), &buf, runnerScale, "determinism check", 4,
			[]*protocol.Pattern{protocol.PAT271}, 42)
		if err != nil {
			t.Fatalf("FigBNF (j=%d): %v", j, err)
		}
		return buf.String(), stats.CSV(series)
	}

	serialText, serialCSV := run(1)
	parallelText, parallelCSV := run(8)

	if serialText != parallelText {
		t.Errorf("FigBNF report differs between -j 1 and -j 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialText, parallelText)
	}
	if serialCSV != parallelCSV {
		t.Errorf("CSV differs between -j 1 and -j 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialCSV, parallelCSV)
	}
	if serialCSV == "" {
		t.Fatal("empty CSV: sweep produced no points")
	}
}

// TestParallelDeadlockFrequencyDeterminism covers the row-fan-out path
// (independent points with no saturation rule).
func TestParallelDeadlockFrequencyDeterminism(t *testing.T) {
	prev := Parallelism()
	t.Cleanup(func() { SetParallelism(prev) })

	run := func(j int) string {
		SetParallelism(j)
		var buf bytes.Buffer
		if err := DeadlockFrequency(context.Background(), &buf, runnerScale); err != nil {
			t.Fatalf("DeadlockFrequency (j=%d): %v", j, err)
		}
		return buf.String()
	}
	if serial, parallel := run(1), run(8); serial != parallel {
		t.Errorf("DeadlockFrequency report differs between -j 1 and -j 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestTruncateAtSaturation pins the stop rule applied to speculated ladders
// against the serial walk's semantics.
func TestTruncateAtSaturation(t *testing.T) {
	mk := func(tp ...float64) []stats.Point {
		pts := make([]stats.Point, len(tp))
		for i, v := range tp {
			pts[i] = stats.Point{Summary: stats.Summary{Throughput: v}}
		}
		return pts
	}
	cases := []struct {
		in   []float64
		want int
	}{
		{[]float64{0.1, 0.2, 0.3}, 3},               // monotone: keep all
		{[]float64{0.1, 0.3, 0.2}, 3},               // dip kept (first beyond-saturation point)
		{[]float64{0.1, 0.3, 0.2, 0.5}, 3},          // stop excludes later recovery
		{[]float64{0.1, 0.3, 0.295, 0.292, 0.2}, 5}, // plateau within 3% keeps walking
		{nil, 0},
	}
	for _, c := range cases {
		got := truncateAtSaturation(mk(c.in...))
		if len(got) != c.want {
			t.Errorf("truncateAtSaturation(%v): kept %d points, want %d", c.in, len(got), c.want)
		}
	}
}
