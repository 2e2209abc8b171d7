// Package stats provides the small statistical toolkit used by the
// benchmark harness: streaming summaries, exact percentiles over retained
// samples, and fixed-width text tables for experiment output.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"unicode/utf8"
)

// Sample accumulates observations and answers summary queries. The zero
// value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
	sum    float64
	min    float64
	max    float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	if len(s.xs) == 0 || x < s.min {
		s.min = x
	}
	if len(s.xs) == 0 || x > s.max {
		s.max = x
	}
	s.xs = append(s.xs, x)
	s.sum += x
	s.sorted = false
}

// AddInt records one integer observation.
func (s *Sample) AddInt(x int) { s.Add(float64(x)) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Sum returns the total of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

// Min returns the smallest observation (0 for an empty sample).
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 { return s.max }

// Stddev returns the population standard deviation.
func (s *Sample) Stddev() float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	m := s.Mean()
	var acc float64
	for _, x := range s.xs {
		d := x - m
		acc += d * d
	}
	return math.Sqrt(acc / float64(n))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on the sorted sample.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s.xs[rank-1]
}

// Median is Percentile(50).
func (s *Sample) Median() float64 { return s.Percentile(50) }

// String summarizes the sample.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p99=%.2f max=%.2f",
		s.N(), s.Mean(), s.Percentile(50), s.Percentile(99), s.Max())
}

// Table renders rows of experiment output with aligned columns, in the
// spirit of a paper's results table. Cells are strings; the first row is
// the header.
type Table struct {
	rows [][]string
}

// Header sets the column headers (must be called first).
func (t *Table) Header(cols ...string) { t.rows = append(t.rows, cols) }

// Row appends a data row; values are rendered with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table as plain text: columns two spaces apart, a rule
// of dashes under the header.
func (t *Table) String() string { return t.render("", "  ", "", 0) }

// Markdown renders the table as a GitHub-flavoured pipe table, cells padded
// to column width so the source reads as a table too.
func (t *Table) Markdown() string { return t.render("| ", " | ", " |", 3) }

// render writes each row as left + cells joined by sep + right, every cell
// padded to its column's width (at least minWidth), and a row of dashes
// under the header.
func (t *Table) render(left, sep, right string, minWidth int) string {
	if len(t.rows) == 0 {
		return ""
	}
	var widths []int
	for _, r := range t.rows {
		for i, c := range r {
			if i >= len(widths) {
				widths = append(widths, minWidth)
			}
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	rule := make([]string, len(widths))
	for i, w := range widths {
		rule[i] = strings.Repeat("-", w)
	}
	var b strings.Builder
	row := func(cells []string) {
		b.WriteString(left)
		for i, c := range cells {
			if i > 0 {
				b.WriteString(sep)
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString(right)
		b.WriteByte('\n')
	}
	for ri, r := range t.rows {
		row(r)
		if ri == 0 {
			row(rule)
		}
	}
	return b.String()
}
