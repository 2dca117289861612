package viz

import (
	"strings"
	"testing"
	"unicode/utf8"
)

func TestSparkShape(t *testing.T) {
	s := Spark([]float64{0, 50, 100}, 100)
	runes := []rune(s)
	if len(runes) != 3 {
		t.Fatalf("sparkline has %d runes, want 3", len(runes))
	}
	if runes[0] != ' ' {
		t.Errorf("zero value rendered as %q", runes[0])
	}
	if runes[2] != '█' {
		t.Errorf("full value rendered as %q", runes[2])
	}
}

func TestSparkClampsAndHandlesBadMax(t *testing.T) {
	s := Spark([]float64{-10, 500}, 100)
	runes := []rune(s)
	if runes[0] != ' ' || runes[1] != '█' {
		t.Errorf("clamping failed: %q", s)
	}
	if got := Spark([]float64{1}, 0); utf8.RuneCountInString(got) != 1 {
		t.Errorf("zero max mishandled: %q", got)
	}
}

func TestCDFRow(t *testing.T) {
	row := CDFRow("SL 0", []float64{10, 50, 100})
	if !strings.Contains(row, "SL 0") || !strings.Contains(row, "100.0%") {
		t.Errorf("row = %q", row)
	}
}
