package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22222")
	s := tb.String()
	if !strings.Contains(s, "Demo") || !strings.Contains(s, "alpha") {
		t.Fatalf("render missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	// Columns aligned: header and rows share the separator width.
	if len(lines[1]) > len(lines[2])+2 {
		t.Errorf("misaligned header/separator:\n%s", s)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")
	if got := len(tb.Rows[0]); got != 3 {
		t.Fatalf("row padded to %d cells", got)
	}
}

func TestFormatters(t *testing.T) {
	cases := map[float64]string{
		0:    "0",
		1.5:  "1.500",
		42:   "42.0",
		420:  "420",
		5e7:  "5.00e+07",
		1e-5: "1.00e-05",
	}
	for v, want := range cases {
		if got := F(v); got != want {
			t.Errorf("F(%v) = %q, want %q", v, got, want)
		}
	}
	if Ratio(2.5) != "2.50x" {
		t.Error("Ratio format")
	}
	if Pct(0.755) != "75.5%" {
		t.Error("Pct format")
	}
	if Seconds(0.0025) != "2.50ms" || Seconds(2) != "2.00s" {
		t.Error("Seconds format")
	}
}

func TestLinRegPerfectLine(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{3, 5, 7, 9, 11} // y = 2x + 1
	slope, intercept, r2 := LinReg(x, y)
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 {
		t.Fatalf("fit = %v, %v", slope, intercept)
	}
	if r2 < 0.9999 {
		t.Fatalf("r2 = %v", r2)
	}
}

func TestLinRegNoisy(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	y := []float64{0.1, 1.9, 4.2, 5.8, 8.1, 9.9, 12.2, 13.8} // ~2x
	slope, _, r2 := LinReg(x, y)
	if slope < 1.8 || slope > 2.2 {
		t.Fatalf("slope = %v", slope)
	}
	if r2 < 0.99 {
		t.Fatalf("r2 = %v", r2)
	}
}

func TestLinRegDegenerate(t *testing.T) {
	slope, intercept, _ := LinReg([]float64{2, 2}, []float64{5, 7})
	if slope != 0 || intercept != 6 {
		t.Fatalf("degenerate fit %v, %v", slope, intercept)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty input")
		}
	}()
	LinReg(nil, nil)
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("GeoMean = %v", g)
	}
	if GeoMean([]float64{1, 0}) != 0 || GeoMean(nil) != 0 {
		t.Fatal("degenerate GeoMean")
	}
}
