package tracegen

import (
	"math"
	"testing"

	"repro/internal/coherence"
)

func TestAppProfiles(t *testing.T) {
	// Figure 6 qualitative properties.
	for _, a := range []App{FFT, LU, Water} {
		if f := a.FractionBelow(0.05); f < 0.92 {
			t.Errorf("%s: only %.2f of time under 5%% load", a.Name, f)
		}
	}
	if f := Radix.FractionBelow(0.05); math.Abs(f-0.5) > 0.1 {
		t.Errorf("Radix under-5%% fraction = %.2f, want ~0.5", f)
	}
	if Radix.AverageLoad() < 0.1 {
		t.Errorf("Radix average load %.3f too low", Radix.AverageLoad())
	}
	max := 0.0
	for _, l := range Radix.Levels {
		if l.Load > max {
			max = l.Load
		}
	}
	if max > 0.31 {
		t.Errorf("Radix peak load %.2f exceeds the paper's 30%%", max)
	}
	if _, ok := AppByName("Radix"); !ok {
		t.Error("AppByName failed")
	}
	if _, ok := AppByName("nope"); ok {
		t.Error("AppByName accepted unknown app")
	}
}

// TestGeneratedMixMatchesTable1 is the calibration check: replaying each
// generated trace through the real coherence engine must land on the
// Table 1 response-type distribution within a few percent.
func TestGeneratedMixMatchesTable1(t *testing.T) {
	for _, app := range Apps {
		g := NewGenerator(app, 16, 7)
		tr := g.Generate(120000)
		if len(tr.Records) == 0 {
			t.Fatalf("%s: empty trace", app.Name)
		}
		sys, err := coherence.New(coherence.DefaultConfig(16))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tr.Records {
			sys.Access(int(r.CPU), r.Op, r.Addr)
		}
		d, i, f := sys.Mix()
		const tol = 0.05
		if math.Abs(d-app.Direct) > tol || math.Abs(i-app.Inval) > tol || math.Abs(f-app.Forward) > tol {
			t.Errorf("%s mix = %.3f/%.3f/%.3f, want %.3f/%.3f/%.3f",
				app.Name, d, i, f, app.Direct, app.Inval, app.Forward)
		}
	}
}

func TestGeneratedLoadLevels(t *testing.T) {
	// The generated miss rate must track the profile's average load.
	g := NewGenerator(Radix, 16, 3)
	tr := g.Generate(100000)
	misses := 0
	for _, r := range tr.Records {
		// Hits target the per-cpu hot lines; everything else is a miss.
		if r.Addr != g.hotLines[r.CPU] {
			misses++
		}
	}
	gotLoad := float64(misses) / 100000 / 16 * g.avgFlits
	want := Radix.AverageLoad()
	if math.Abs(gotLoad-want)/want > 0.25 {
		t.Fatalf("generated load %.4f, profile average %.4f", gotLoad, want)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(Water, 16, 11).Generate(5000)
	b := NewGenerator(Water, 16, 11).Generate(5000)
	if len(a.Records) != len(b.Records) {
		t.Fatal("lengths differ")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestGeneratorBurstiness(t *testing.T) {
	// Radix alternates load levels across windows: per-window miss counts
	// must vary substantially (bursty), unlike a flat Bernoulli stream.
	g := NewGenerator(Radix, 16, 5)
	tr := g.Generate(50000)
	window := make(map[int64]int)
	for _, r := range tr.Records {
		window[r.Time/500]++
	}
	lo, hi := 1<<30, 0
	for w := int64(0); w < 100; w++ {
		c := window[w]
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi < 4*lo+4 {
		t.Fatalf("load not bursty: min window %d, max window %d", lo, hi)
	}
}
