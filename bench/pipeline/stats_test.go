package pipeline

import (
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{8, 1, 4, 2})
	if s.Median != 3 || s.Min != 1 || s.Max != 8 || s.N != 4 {
		t.Errorf("summary %+v", s)
	}
	// Python: statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if math.Abs(s.IQR-5.75) > 1e-12 {
		t.Errorf("IQR %v, want 5.75", s.IQR)
	}
	if got := Summarize(nil); got != (Summary{}) {
		t.Errorf("empty summary %+v", got)
	}
	if got := Summarize([]float64{7}); got.Median != 7 || got.IQR != 0 || got.N != 1 {
		t.Errorf("single-sample summary %+v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = Quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("two-sample quartiles %v %v %v", q1, q2, q3)
	}
	if got := relSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("relSpread %v, want 1", got)
	}
}

func TestMedian(t *testing.T) {
	if Median(nil) != 0 || Median([]float64{3, 1, 2}) != 2 || Median([]float64{4, 1}) != 2.5 {
		t.Error("median")
	}
}
