package stats

import (
	"fmt"
	"math"
	"strings"
)

// PlotBNF renders latency-throughput series as an ASCII scatter plot in
// Burton Normal Form — throughput on the x-axis, average latency on the
// y-axis — the exact presentation of Figures 8 through 11. Each series is
// drawn with its own glyph; the y-axis is clipped at latencyCap (pass 0 for
// an automatic cap at four times the minimum observed latency, which keeps
// the pre-saturation region readable the way the paper's figures do).
func PlotBNF(title string, series []Series, width, height int, latencyCap float64) string {
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	glyphs := []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

	// Bounds.
	maxThr := 0.0
	minLat := math.Inf(1)
	maxLat := 0.0
	any := false
	for _, s := range series {
		for _, p := range s.Points {
			any = true
			if p.Throughput > maxThr {
				maxThr = p.Throughput
			}
			if p.AvgLatency < minLat && p.AvgLatency > 0 {
				minLat = p.AvgLatency
			}
			if p.AvgLatency > maxLat {
				maxLat = p.AvgLatency
			}
		}
	}
	if !any {
		return title + "\n(no data)\n"
	}
	if latencyCap <= 0 {
		latencyCap = 8 * minLat
	}
	if maxLat > latencyCap {
		maxLat = latencyCap
	}
	if maxThr <= 0 || maxLat <= minLat {
		maxThr, minLat, maxLat = 1, 0, 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for _, p := range s.Points {
			lat := p.AvgLatency
			if lat > latencyCap {
				lat = latencyCap
			}
			x := int(p.Throughput / maxThr * float64(width-1))
			y := int((lat - minLat) / (maxLat - minLat) * float64(height-1))
			if x < 0 {
				x = 0
			}
			if y < 0 {
				y = 0
			}
			row := height - 1 - y
			if grid[row][x] == ' ' {
				grid[row][x] = g
			} else {
				grid[row][x] = '!'
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "latency (cycles), capped at %.0f\n", latencyCap)
	for i, row := range grid {
		label := "        "
		if i == 0 {
			label = fmt.Sprintf("%7.0f ", maxLat)
		} else if i == height-1 {
			label = fmt.Sprintf("%7.0f ", minLat)
		}
		fmt.Fprintf(&b, "%s|%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "        +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "        0  ...  throughput: %.3f flits/node/cycle\n", maxThr)
	for si, s := range series {
		fmt.Fprintf(&b, "        %c = %s\n", glyphs[si%len(glyphs)], s.Name)
	}
	return b.String()
}
