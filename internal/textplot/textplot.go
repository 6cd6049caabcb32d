// Package textplot renders small ASCII line charts for terminal output —
// enough to see a load-latency knee or an energy curve without leaving
// the shell. The observability layer draws its telemetry time series
// with it, and nocsim its utilisation heatmaps.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line of (X, Y) points.
type Series struct {
	Name   string
	X, Y   []float64
	Marker byte
}

// Plot is a fixed-size character canvas with axes.
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	Width  int // plot area columns (default 60)
	Height int // plot area rows (default 16)
	// YMax caps the y-axis (0 = auto). Useful for latency curves whose
	// saturated points would flatten everything else.
	YMax float64

	series []Series
}

// DefaultMarkers are assigned to series without an explicit marker.
var DefaultMarkers = []byte{'*', '+', 'o', 'x', '#', '@'}

// Add appends a series. X and Y must have equal length.
func (p *Plot) Add(s Series) error {
	if len(s.X) != len(s.Y) {
		return fmt.Errorf("textplot: series %q has %d x values and %d y values", s.Name, len(s.X), len(s.Y))
	}
	if s.Marker == 0 {
		s.Marker = DefaultMarkers[len(p.series)%len(DefaultMarkers)]
	}
	p.series = append(p.series, s)
	return nil
}

// Render draws the chart.
func (p *Plot) Render() string {
	w, h := p.Width, p.Height
	if w <= 0 {
		w = 60
	}
	if h <= 0 {
		h = 16
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := 0.0, math.Inf(-1)
	for _, s := range p.series {
		for i := range s.X {
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			y := s.Y[i]
			if p.YMax > 0 && y > p.YMax {
				y = p.YMax
			}
			ymax = math.Max(ymax, y)
		}
	}
	if len(p.series) == 0 || math.IsInf(xmin, 1) {
		return "(no data)\n"
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax <= ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = bytes(' ', w)
	}
	for _, s := range p.series {
		for i := range s.X {
			y := s.Y[i]
			if p.YMax > 0 && y > p.YMax {
				y = p.YMax
			}
			col := int(math.Round((s.X[i] - xmin) / (xmax - xmin) * float64(w-1)))
			row := int(math.Round((y - ymin) / (ymax - ymin) * float64(h-1)))
			r := h - 1 - row
			if r >= 0 && r < h && col >= 0 && col < w {
				grid[r][col] = s.Marker
			}
		}
	}

	var b strings.Builder
	if p.Title != "" {
		fmt.Fprintf(&b, "%s\n", p.Title)
	}
	yTop := fmt.Sprintf("%.3g", ymax)
	yBot := fmt.Sprintf("%.3g", ymin)
	pad := len(yTop)
	if len(yBot) > pad {
		pad = len(yBot)
	}
	for r := 0; r < h; r++ {
		label := strings.Repeat(" ", pad)
		switch r {
		case 0:
			label = fmt.Sprintf("%*s", pad, yTop)
		case h - 1:
			label = fmt.Sprintf("%*s", pad, yBot)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", pad), strings.Repeat("-", w))
	fmt.Fprintf(&b, "%s  %-*s%s\n", strings.Repeat(" ", pad), w-len(fmt.Sprintf("%.3g", xmax)), fmt.Sprintf("%.3g", xmin), fmt.Sprintf("%.3g", xmax))
	if p.XLabel != "" || p.YLabel != "" {
		fmt.Fprintf(&b, "%s  x: %s   y: %s\n", strings.Repeat(" ", pad), p.XLabel, p.YLabel)
	}
	for _, s := range p.series {
		fmt.Fprintf(&b, "%s  %c %s\n", strings.Repeat(" ", pad), s.Marker, s.Name)
	}
	return b.String()
}

func bytes(c byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = c
	}
	return out
}

// Heatmap renders a 2D grid of values in [0, inf) as shaded ASCII cells,
// normalised to the maximum — used for per-router utilisation maps.
func Heatmap(title string, grid [][]float64) string {
	shades := []byte(" .:-=+*#%@")
	maxV := 0.0
	for _, row := range grid {
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s (max %.3f)\n", title, maxV)
	}
	for _, row := range grid {
		b.WriteByte('|')
		for _, v := range row {
			idx := 0
			if maxV > 0 {
				idx = int(v / maxV * float64(len(shades)-1))
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			b.WriteByte(shades[idx])
			b.WriteByte(shades[idx])
		}
		b.WriteString("|\n")
	}
	return b.String()
}
