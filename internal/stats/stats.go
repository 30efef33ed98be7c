// Package stats provides the small measurement-collection and text-table
// vocabulary shared by the benchmark harness: (x, y) series for figures,
// aligned tables for the paper's tables, and unit helpers.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Point is one (x, y) sample of a figure series.
type Point struct {
	X, Y float64
}

// Series is a named curve, e.g. "Raw U-Net" in Figure 3.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// At returns the y value at the x closest to the requested one (series are
// swept over discrete parameter grids).
func (s *Series) At(x float64) (float64, bool) {
	best, bestDist := 0.0, math.Inf(1)
	found := false
	for _, p := range s.Points {
		if d := math.Abs(p.X - x); d < bestDist {
			best, bestDist, found = p.Y, d, true
		}
	}
	return best, found
}

// Figure is a set of series sharing axes, reproducing one paper figure.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// String renders the figure as an aligned text table with one row per x
// value and one column per series, suitable for plotting elsewhere.
func (f *Figure) String() string {
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	t := NewTable(f.Title)
	headers := []string{f.XLabel}
	for _, s := range f.Series {
		headers = append(headers, s.Name)
	}
	t.Header(headers...)
	for _, x := range sorted {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			y := math.NaN()
			for _, p := range s.Points {
				if p.X == x {
					y = p.Y
					break
				}
			}
			if math.IsNaN(y) {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.2f", y))
			}
		}
		t.Row(row...)
	}
	if f.YLabel != "" {
		return t.String() + "(y: " + f.YLabel + ")\n"
	}
	return t.String()
}

// Table is an aligned text table.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a titled table.
func NewTable(title string) *Table { return &Table{Title: title} }

// Header sets the column headers.
func (t *Table) Header(cols ...string) { t.headers = cols }

// Row appends a row.
func (t *Table) Row(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	all := t.rows
	if t.headers != nil {
		all = append([][]string{t.headers}, t.rows...)
	}
	widths := map[int]int{}
	for _, row := range all {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for ri, row := range all {
		for i, c := range row {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteByte('\n')
		if ri == 0 && t.headers != nil {
			for i := range row {
				b.WriteString(strings.Repeat("-", widths[i]) + "  ")
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// US converts a duration to float microseconds.
func US(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func trimFloat(x float64) string {
	if x == math.Trunc(x) {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.2f", x)
}
