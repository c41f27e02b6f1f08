// Package stats provides the measurement primitives the experiment
// harnesses use: integer histograms, hot-key concentration CDFs (for the
// paper's Figure 4 locality curves) and simple fixed-width table
// rendering for CLI output.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram counts occurrences of small non-negative integer values, e.g.
// "number of processors that must observe a request" (Figure 2) or
// "number of unique processors that touched a block" (Figure 3).
type Histogram struct {
	counts []uint64
	total  uint64
}

// NewHistogram returns a histogram over values [0, max].
func NewHistogram(max int) *Histogram {
	return &Histogram{counts: make([]uint64, max+1)}
}

// Add records one observation of value v. Values beyond the histogram's
// range are clamped into the top bucket so tail mass is never lost.
func (h *Histogram) Add(v int) { h.AddN(v, 1) }

// AddN records n observations of value v.
func (h *Histogram) AddN(v int, n uint64) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.counts) {
		v = len(h.counts) - 1
	}
	h.counts[v] += n
	h.total += n
}

// Reset drops every observation, keeping the histogram's range.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.total = 0
}

// Count returns the number of observations of value v.
func (h *Histogram) Count(v int) uint64 {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}

// Percent returns the percentage of observations with value v.
func (h *Histogram) Percent(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return 100 * float64(h.Count(v)) / float64(h.total)
}

// PercentAtLeast returns the percentage of observations with value >= v.
func (h *Histogram) PercentAtLeast(v int) float64 {
	if h.total == 0 {
		return 0
	}
	var n uint64
	for i := v; i < len(h.counts); i++ {
		n += h.counts[i]
	}
	return 100 * float64(n) / float64(h.total)
}

// Quantile returns the smallest value v such that at least q (0..1) of
// all observations are <= v. It returns -1 for an empty histogram.
func (h *Histogram) Quantile(q float64) int {
	if h.total == 0 {
		return -1
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	need := uint64(q * float64(h.total))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for v, c := range h.counts {
		cum += c
		if cum >= need {
			return v
		}
	}
	return len(h.counts) - 1
}

// Concentration measures how observations concentrate on hot keys: it
// counts events per key and reports the cumulative fraction of all events
// covered by the N hottest keys. This is exactly the paper's Figure 4
// ("the hottest 1,000 data blocks in SPECjbb account for 80% of all
// cache-to-cache misses").
type Concentration struct {
	counts map[uint64]uint64
	total  uint64
}

// NewConcentration returns an empty concentration tracker.
func NewConcentration() *Concentration {
	return &Concentration{counts: make(map[uint64]uint64)}
}

// Add records one event attributed to key.
func (c *Concentration) Add(key uint64) {
	c.counts[key]++
	c.total++
}

// CumulativePercent returns, for each requested key-count n, the percentage
// of all events covered by the n hottest keys.
func (c *Concentration) CumulativePercent(ns []int) []float64 {
	sorted := make([]uint64, 0, len(c.counts))
	for _, v := range c.counts {
		sorted = append(sorted, v)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	out := make([]float64, len(ns))
	if c.total == 0 {
		return out
	}
	// Prefix sums over the sorted counts.
	prefix := make([]uint64, len(sorted)+1)
	for i, v := range sorted {
		prefix[i+1] = prefix[i] + v
	}
	for i, n := range ns {
		if n < 0 {
			n = 0
		}
		if n > len(sorted) {
			n = len(sorted)
		}
		out[i] = 100 * float64(prefix[n]) / float64(c.total)
	}
	return out
}

// Ratio returns 100*a/b, or 0 when b is zero; the ubiquitous "percent of
// misses" calculation.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// Table renders rows of labelled values as a fixed-width text table; all
// experiment CLIs use it so the output visually matches the paper's tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v, floats with 2 decimals.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			if math.Abs(v-math.Trunc(v)) < 1e-9 && math.Abs(v) < 1e15 {
				row[i] = fmt.Sprintf("%.0f", v)
			} else {
				row[i] = fmt.Sprintf("%.2f", v)
			}
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
