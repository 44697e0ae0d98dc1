// Package plot renders small ASCII line charts for the experiment
// runners, so the figure-shaped results (Figure 4's threshold sweeps, the
// tuner trajectory) can be eyeballed directly in a terminal without any
// plotting dependency.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one named curve.
type Series struct {
	Name   string
	Values []float64
}

// markers distinguish up to eight series.
var markers = []rune{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Chart is a multi-series line chart over a shared categorical X axis.
type Chart struct {
	Title   string
	YLabel  string
	XLabels []string
	Series  []Series

	// Height is the plot-area height in rows (default 12).
	Height int
	// Width is the plot-area width in columns (default: 6 per X point,
	// min 40).
	Width int
}

// bounds computes the Y range across all series, padded slightly.
func (c *Chart) bounds() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for _, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if math.IsInf(lo, 1) {
		return 0, 1
	}
	if hi == lo {
		hi = lo + 1
	}
	pad := float64((hi - lo) * 0.05)
	return lo - pad, hi + pad
}

// Render writes the chart. Invalid charts (no series/points) render a
// placeholder line rather than failing, since they appear inside larger
// reports.
func (c *Chart) Render(w io.Writer) {
	if len(c.Series) == 0 || len(c.XLabels) == 0 {
		fmt.Fprintf(w, "%s: (no data)\n", c.Title)
		return
	}
	height := c.Height
	if height <= 0 {
		height = 12
	}
	width := c.Width
	if width <= 0 {
		width = len(c.XLabels) * 8
		if width < 40 {
			width = 40
		}
	}
	lo, hi := c.bounds()

	// grid[row][col], row 0 = top.
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = make([]rune, width)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	colFor := func(i int) int {
		if len(c.XLabels) == 1 {
			return 0
		}
		return i * (width - 1) / (len(c.XLabels) - 1)
	}
	rowFor := func(v float64) int {
		frac := (v - lo) / (hi - lo)
		r := height - 1 - int(math.Round(frac*float64(height-1)))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}
	for si, s := range c.Series {
		m := markers[si%len(markers)]
		prevCol, prevRow := -1, -1
		for i, v := range s.Values {
			if i >= len(c.XLabels) || math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			col, row := colFor(i), rowFor(v)
			// Connect to the previous point with light interpolation.
			if prevCol >= 0 {
				steps := col - prevCol
				for k := 1; k < steps; k++ {
					ic := prevCol + k
					ir := prevRow + (row-prevRow)*k/steps
					if grid[ir][ic] == ' ' {
						grid[ir][ic] = '.'
					}
				}
			}
			grid[row][col] = m
			prevCol, prevRow = col, row
		}
	}

	if c.Title != "" {
		fmt.Fprintf(w, "%s\n", c.Title)
	}
	axisW := 9
	for r := 0; r < height; r++ {
		// Y tick at top, middle, bottom.
		label := strings.Repeat(" ", axisW)
		switch r {
		case 0:
			label = fmt.Sprintf("%8.3f ", hi)
		case height / 2:
			label = fmt.Sprintf("%8.3f ", (hi+lo)/2)
		case height - 1:
			label = fmt.Sprintf("%8.3f ", lo)
		}
		fmt.Fprintf(w, "%s|%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(w, "%s+%s\n", strings.Repeat(" ", axisW), strings.Repeat("-", width))

	// X labels, spread across the width.
	xrow := make([]rune, width+1)
	for i := range xrow {
		xrow[i] = ' '
	}
	for i, lbl := range c.XLabels {
		col := colFor(i)
		// Right-shift labels that would run off the edge so the last
		// tick stays fully readable.
		if col+len(lbl) > len(xrow) {
			col = len(xrow) - len(lbl)
			if col < 0 {
				col = 0
			}
		}
		for k, ch := range lbl {
			pos := col + k
			if pos < len(xrow) {
				xrow[pos] = ch
			}
		}
	}
	fmt.Fprintf(w, "%s %s\n", strings.Repeat(" ", axisW), strings.TrimRight(string(xrow), " "))

	// Legend.
	var legend []string
	for si, s := range c.Series {
		legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], s.Name))
	}
	fmt.Fprintf(w, "%s %s\n", strings.Repeat(" ", axisW), strings.Join(legend, "   "))
	if c.YLabel != "" {
		fmt.Fprintf(w, "%s y: %s\n", strings.Repeat(" ", axisW), c.YLabel)
	}
	fmt.Fprintln(w)
}
