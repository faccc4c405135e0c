package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsRun smoke-tests every registered experiment in quick
// mode: it must produce a non-empty table with consistent row widths.
func TestAllExperimentsRun(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := Run(id, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if tbl.ID != id {
				t.Errorf("table ID %q, want %q", tbl.ID, id)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Errorf("row %d has %d columns, want %d", i, len(row), len(tbl.Columns))
				}
			}
			var buf bytes.Buffer
			tbl.Print(&buf)
			if !strings.Contains(buf.String(), tbl.Title) {
				t.Error("Print omitted the title")
			}
		})
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestIDsCoverEveryPaperExhibit(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig20", "fig21", "table2", "table3", "overhead",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
}

// num parses a numeric table entry.
func num(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("entry %q not numeric: %v", s, err)
	}
	return v
}

// Fig 11's headline shape: DRF and Tetris normalized JCT > 1 (Optimus wins).
func TestFig11Shape(t *testing.T) {
	tbl, err := Run("fig11", Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		normJCT := num(t, row[1])
		switch row[0] {
		case "optimus":
			if normJCT != 1 {
				t.Errorf("optimus norm-JCT = %g, want 1", normJCT)
			}
		default:
			if normJCT <= 1 {
				t.Errorf("%s norm-JCT = %g, want > 1", row[0], normJCT)
			}
		}
	}
}

// Table 3's shape: PAA strictly better on all three metrics.
func TestTable3Shape(t *testing.T) {
	tbl, err := Run("table3", Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	mx, paa := tbl.Rows[0], tbl.Rows[1]
	for col := 1; col <= 3; col++ {
		if num(t, paa[col]) >= num(t, mx[col]) {
			t.Errorf("column %s: PAA %s not below MXNet %s",
				tbl.Columns[col], paa[col], mx[col])
		}
	}
}

// Fig 20's shape: PAA speedup at the largest PS count exceeds the smallest.
func TestFig20Shape(t *testing.T) {
	tbl, err := Run("fig20", Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	first := num(t, tbl.Rows[0][3])
	last := num(t, tbl.Rows[len(tbl.Rows)-1][3])
	if last <= first {
		t.Errorf("PAA speedup should grow with ps: %.3f → %.3f", first, last)
	}
}

// Fig 15's shape: error-free row is 1.00 and the largest error is ≥ it.
func TestFig15Shape(t *testing.T) {
	tbl, err := Run("fig15", Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[1] == "0" {
			if v := num(t, row[2]); v < 0.95 || v > 1.05 {
				t.Errorf("zero-error norm-JCT = %g, want ≈ 1", v)
			}
		}
	}
}
