package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/schemes"
)

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"full", "quick", "smoke"} {
		s, err := ScaleByName(name)
		if err != nil || s.Name != name {
			t.Errorf("ScaleByName(%q) = %+v, %v", name, s, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestSweepStopsJustBeyondSaturation(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.Radix = []int{4, 4}
	cfg.Scheme = schemes.PR
	cfg.Pattern = protocol.PAT100
	cfg.Warmup = 500
	cfg.Measure = 2500
	cfg.MaxDrain = 3000
	sr, err := Sweep(context.Background(), cfg, []float64{0.002, 0.01, 0.03, 0.05, 0.08}, "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) < 2 {
		t.Fatalf("sweep produced %d points", len(sr.Points))
	}
	// Throughput must increase initially.
	if sr.Points[1].Throughput <= sr.Points[0].Throughput {
		t.Fatal("sweep throughput not increasing at low load")
	}
	if sr.SaturationThroughput() <= 0 {
		t.Fatal("no saturation measured")
	}
}

func TestTable1Report(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(context.Background(), &buf, Smoke, 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, app := range []string{"FFT", "LU", "Radix", "Water"} {
		if !strings.Contains(out, app) {
			t.Errorf("Table 1 missing %s:\n%s", app, out)
		}
	}
}

func TestFig11VariantsPresent(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var buf bytes.Buffer
	series, err := Fig11(context.Background(), &buf, Smoke)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("Fig11 produced %d series, want 5 (SA, DR, DR-QA, PR, PR-QA)", len(series))
	}
	names := map[string]bool{}
	for _, s := range series {
		names[s.Name] = true
	}
	for _, want := range []string{"SA", "DR", "DR-QA", "PR", "PR-QA"} {
		if !names[want] {
			t.Errorf("missing series %q", want)
		}
	}
}

func TestFigBNFOmitsInvalidCurves(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var buf bytes.Buffer
	series, err := FigBNF(context.Background(), &buf, Smoke, "probe", 4,
		[]*protocol.Pattern{protocol.PAT100, protocol.PAT271}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		// The paper's gaps: no DR for PAT100; no SA for PAT271 at 4 VCs.
		if s.Name == "PAT100/DR" || s.Name == "PAT271/SA" {
			t.Errorf("invalid curve %q produced", s.Name)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "PAT100/SA") && !strings.Contains(out, "PAT100") {
		t.Error("report missing PAT100 section")
	}
}
