package stats

import (
	"strings"
	"testing"
)

func plotSeries() []Series {
	return []Series{
		{Name: "PR", Points: []Point{
			{Summary: Summary{Throughput: 0.05, AvgLatency: 20}},
			{Summary: Summary{Throughput: 0.20, AvgLatency: 30}},
			{Summary: Summary{Throughput: 0.40, AvgLatency: 120}},
		}},
		{Name: "DR", Points: []Point{
			{Summary: Summary{Throughput: 0.05, AvgLatency: 22}},
			{Summary: Summary{Throughput: 0.18, AvgLatency: 60}},
			{Summary: Summary{Throughput: 0.22, AvgLatency: 400}},
		}},
	}
}

func TestPlotBNFContainsLegendAndGlyphs(t *testing.T) {
	out := PlotBNF("fig", plotSeries(), 60, 12, 0)
	if !strings.Contains(out, "fig") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "* = PR") || !strings.Contains(out, "o = DR") {
		t.Fatalf("missing legend:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatal("missing data glyphs")
	}
	if !strings.Contains(out, "throughput") {
		t.Fatal("missing x label")
	}
}

func TestPlotBNFEmpty(t *testing.T) {
	out := PlotBNF("empty", nil, 40, 10, 0)
	if !strings.Contains(out, "no data") {
		t.Fatalf("empty plot output: %s", out)
	}
}

func TestPlotBNFClampsTinyDimensions(t *testing.T) {
	out := PlotBNF("t", plotSeries(), 1, 1, 0)
	if len(strings.Split(out, "\n")) < 8 {
		t.Fatal("dimensions not clamped")
	}
}

func TestPlotBNFLatencyCap(t *testing.T) {
	// With an explicit cap of 100, the 400-latency point must clip rather
	// than stretch the axis.
	out := PlotBNF("t", plotSeries(), 60, 12, 100)
	if !strings.Contains(out, "capped at 100") {
		t.Fatalf("cap not applied:\n%s", out)
	}
}
