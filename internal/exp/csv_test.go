package exp

import (
	"encoding/csv"
	"strings"
	"testing"
)

func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v", err)
	}
	return rows
}

func TestCSVFig5(t *testing.T) {
	out, err := CSV("fig5", 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, out)
	if len(rows) != len(DefaultSizes())+1 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0][1] != "moody" || rows[0][3] != "l2l3" {
		t.Fatalf("header: %v", rows[0])
	}
}

func TestCSVFig7(t *testing.T) {
	out, err := CSV("fig7", 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, out)
	if len(rows[0]) != 2+len(DefaultSharingFactors()) {
		t.Fatalf("header: %v", rows[0])
	}
}

// TestCSVFig2 renders Fig2's default set from the shared memo: CSV("fig2")
// is Fig2 then this renderer, and recomputing the series here would
// duplicate the memo's work.
func TestCSVFig2(t *testing.T) {
	rows := parseCSV(t, fig2CSV(fig2At42(t, "sjeng", "lbm", "bzip2")))
	if len(rows) != 61 { // header + 60 seconds
		t.Fatalf("%d rows", len(rows))
	}
	if len(rows[0]) != 1+3*2 {
		t.Fatalf("header: %v", rows[0])
	}
}

func TestCSVTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("log generation")
	}
	out, err := CSV("table1", 7)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, out)
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
}

func TestCSVUnknown(t *testing.T) {
	if _, err := CSV("fig99", 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := CSV("ablations", 1); err == nil {
		t.Fatal("non-tabular experiment accepted")
	}
}
