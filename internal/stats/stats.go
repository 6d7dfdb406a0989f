// Package stats provides the small statistical and tabular toolkit the
// experiment harness uses: running summaries, series keyed by a sweep
// parameter, and plain-text/CSV rendering so every table and figure of
// the paper can be regenerated as text.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Summary accumulates scalar observations.
type Summary struct {
	n   int
	sum float64
	max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	if s.n == 0 || x > s.max {
		s.max = x
	}
	s.n++
	s.sum += x
}

// Mean reports the arithmetic mean (0 for an empty summary).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Max reports the largest observation.
func (s *Summary) Max() float64 { return s.max }

// Series maps a sweep parameter (e.g. tile count) to values for several
// named lines (e.g. the three heuristics of Fig. 6).
type Series struct {
	Param string   // x-axis name
	Lines []string // line names, in display order
	rows  map[int]map[string]float64
	xs    []int
}

// NewSeries creates a series with the given x-axis and line names.
func NewSeries(param string, lines ...string) *Series {
	return &Series{Param: param, Lines: lines, rows: map[int]map[string]float64{}}
}

// Set records the value of one line at one x.
func (s *Series) Set(x int, line string, v float64) {
	row, ok := s.rows[x]
	if !ok {
		row = map[string]float64{}
		s.rows[x] = row
		s.xs = append(s.xs, x)
		sort.Ints(s.xs)
	}
	row[line] = v
}

// Get returns the value of a line at x (and whether it was set).
func (s *Series) Get(x int, line string) (float64, bool) {
	row, ok := s.rows[x]
	if !ok {
		return 0, false
	}
	v, ok := row[line]
	return v, ok
}

// Xs returns the recorded sweep values in ascending order.
func (s *Series) Xs() []int { return append([]int(nil), s.xs...) }

// Table renders the series as an aligned text table.
func (s *Series) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", s.Param)
	for _, l := range s.Lines {
		fmt.Fprintf(&b, " %18s", l)
	}
	b.WriteByte('\n')
	for _, x := range s.xs {
		fmt.Fprintf(&b, "%-10d", x)
		for _, l := range s.Lines {
			if v, ok := s.Get(x, l); ok {
				fmt.Fprintf(&b, " %18.2f", v)
			} else {
				fmt.Fprintf(&b, " %18s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the series as comma-separated values.
func (s *Series) CSV() string {
	var b strings.Builder
	b.WriteString(s.Param)
	for _, l := range s.Lines {
		b.WriteByte(',')
		b.WriteString(l)
	}
	b.WriteByte('\n')
	for _, x := range s.xs {
		fmt.Fprintf(&b, "%d", x)
		for _, l := range s.Lines {
			b.WriteByte(',')
			if v, ok := s.Get(x, l); ok {
				fmt.Fprintf(&b, "%.4f", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table is a generic string table with a header, rendered as aligned
// text by String.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given column names.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Header) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// widths computes per-column display widths.
func (t *Table) widths() []int {
	w := make([]int, len(t.Header))
	for i, h := range t.Header {
		w[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(w) && len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	w := t.widths()
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", w[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// AsciiChart renders one line of a series as a crude horizontal bar
// chart — enough to eyeball the shape of a paper figure in a terminal.
func AsciiChart(s *Series, line string, width int) string {
	if width <= 0 {
		width = 50
	}
	var maxV float64
	for _, x := range s.Xs() {
		if v, ok := s.Get(x, line); ok && v > maxV {
			maxV = v
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (max %.2f)\n", line, maxV)
	for _, x := range s.Xs() {
		v, ok := s.Get(x, line)
		if !ok {
			continue
		}
		n := 0
		if maxV > 0 {
			n = int(v / maxV * float64(width))
		}
		fmt.Fprintf(&b, "%4d | %s %.2f\n", x, strings.Repeat("#", n), v)
	}
	return b.String()
}
