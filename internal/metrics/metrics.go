// Package metrics provides the reporting substrate for the experiment
// harness: aligned ASCII tables (every paper table and figure is emitted
// as one), compact number formatting, normalization helpers (the paper
// normalizes every chart to a named baseline), and the least-squares
// regression used for the Fig. 20 scalability extrapolation.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float compactly: 3 significant-ish digits, scientific for
// extremes.
func F(v float64) string {
	av := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case av >= 1e6 || av < 1e-3:
		return fmt.Sprintf("%.2e", v)
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Ratio formats a normalized value as "1.23x".
func Ratio(v float64) string { return fmt.Sprintf("%.2fx", v) }

// Pct formats a fraction as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// Seconds formats a duration with an adaptive unit.
func Seconds(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 1e-6:
		return fmt.Sprintf("%.0fns", v*1e9)
	case v < 1e-3:
		return fmt.Sprintf("%.1fus", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.2fms", v*1e3)
	default:
		return fmt.Sprintf("%.2fs", v)
	}
}

// LinReg fits y = slope*x + intercept by least squares and returns the
// coefficient of determination r2. It panics on mismatched or empty input.
func LinReg(x, y []float64) (slope, intercept, r2 float64) {
	if len(x) != len(y) || len(x) == 0 {
		panic("metrics: LinReg needs equal non-empty inputs")
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, my, 0
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		return slope, intercept, 1
	}
	ssRes := 0.0
	for i := range x {
		e := y[i] - (slope*x[i] + intercept)
		ssRes += e * e
	}
	r2 = 1 - ssRes/syy
	return slope, intercept, r2
}

// GeoMean returns the geometric mean of positive values (0 otherwise).
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}
