// Package experiments regenerates every table and figure of the paper's
// evaluation (§3 examples, §6 evaluation): each experiment is a named
// function producing a Table of rows matching what the paper plots. The CLI
// (cmd/optimus-sim) and the benchmark harness (bench_test.go) both consume
// this registry, so numbers printed by `go test -bench` and by the CLI come
// from the same code.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"optimus/internal/ascii"
	"optimus/internal/chaos"
)

// Table is one experiment's regenerated data.
type Table struct {
	ID      string // e.g. "fig11", "table2"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string // paper-vs-reproduction commentary
	// Series, when set, is plotted as a terminal chart under the rows —
	// figures render as figures.
	Series []ascii.Series
}

// Print renders the table as aligned text.
func (t Table) Print(w io.Writer) {
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
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	_ = line
	// Render header, separator, rows.
	printRow(w, t.Columns, widths)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(w, sep, widths)
	for _, row := range t.Rows {
		printRow(w, row, widths)
	}
	if len(t.Series) > 0 {
		fmt.Fprint(w, ascii.Chart(t.Series, 56, 10))
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

func printRow(w io.Writer, cells []string, widths []int) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		width := 0
		if i < len(widths) {
			width = widths[i]
		}
		parts[i] = fmt.Sprintf("%-*s", width, c)
	}
	fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
}

// Options seeds an experiment and sets how it runs; every exhibit runs at
// the paper's scale.
type Options struct {
	Seed int64
	// Parallel is the worker-pool width for independent simulator runs.
	// Zero means GOMAXPROCS; 1 forces serial execution. Any width produces
	// byte-identical tables for the same seed (see internal/experiments/
	// parallel.go for the invariants that guarantee this).
	Parallel int
	// Faults, when set, replaces the failure exhibit's generated chaos
	// schedule with a user-provided one (cmd/optimus-sim -faults).
	Faults *chaos.Schedule
}

// Runner is one registered experiment.
type Runner func(Options) (Table, error)

var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// IDs lists the registered experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, opt Options) (Table, error) {
	r, ok := registry[id]
	if !ok {
		return Table{}, fmt.Errorf("experiments: unknown id %q (have %s)",
			id, strings.Join(IDs(), ", "))
	}
	return r(opt)
}

// f formats a float compactly.
func f(v float64) string { return fmt.Sprintf("%.4g", v) }

// f2 formats with 2 decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
