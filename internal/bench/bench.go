// Package bench regenerates every table and figure in the paper's
// evaluation section (§V) against this repository's implementation. Each
// Fig*/Tab*/Abl* function runs one experiment and returns a Table whose
// rows are the series the paper plots. Absolute numbers differ from the
// paper's production testbed; the shapes are the reproduction target (see
// EXPERIMENTS.md). The package's tests are the runner: each runs one
// experiment, logs its table and checks the paper's claim on it.
//
//	go test -run 'Test(Fig|Tab|Abl|Bulk)' -v ./internal/bench -args -scale 1
package bench

import (
	"fmt"
	"strings"
	"time"
)

// Options tune experiment sizes.
type Options struct {
	// Scale multiplies experiment sizes and durations; 1.0 is the full
	// (tens of seconds per figure) run, tests default to 0.01-0.15.
	Scale float64
	// Seed fixes randomness.
	Seed int64
	// Logf receives progress lines (nil discards).
	Logf func(format string, args ...any)
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1.0
	}
	return o.Scale
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// scaledN scales an integer size, with a floor.
func (o Options) scaledN(n, min int) int {
	v := int(float64(n) * o.scale())
	if v < min {
		return min
	}
	return v
}

// scaledD scales a duration, with a floor.
func (o Options) scaledD(d time.Duration, min time.Duration) time.Duration {
	v := time.Duration(float64(d) * o.scale())
	if v < min {
		return min
	}
	return v
}

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		case time.Duration:
			row[i] = fmtDur(v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", float64(d)/float64(time.Second))
	}
}

// String renders the table as text.
func (t *Table) String() string {
	w := &strings.Builder{}
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	return w.String()
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}
