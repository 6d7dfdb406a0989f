package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.n != 8 {
		t.Fatalf("n = %d", s.n)
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Max() != 9 {
		t.Fatalf("max = %v", s.Max())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 {
		t.Fatal("empty summary should be zero")
	}
	s.Add(3)
	if s.Mean() != 3 {
		t.Fatal("single-sample summary")
	}
}

// Property: mean lies within the observed range, and Max is its top.
func TestSummaryProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var s Summary
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			s.Add(x)
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		if s.n == 0 {
			return true
		}
		m := s.Mean()
		return s.Max() == hi && m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesSetGetAndOrder(t *testing.T) {
	s := NewSeries("tiles", "a", "b")
	s.Set(10, "a", 1.5)
	s.Set(8, "a", 3.0)
	s.Set(8, "b", 2.0)
	if xs := s.Xs(); len(xs) != 2 || xs[0] != 8 || xs[1] != 10 {
		t.Fatalf("xs = %v", xs)
	}
	if v, ok := s.Get(8, "b"); !ok || v != 2.0 {
		t.Fatalf("get = %v %v", v, ok)
	}
	if _, ok := s.Get(9, "a"); ok {
		t.Fatal("phantom value")
	}
	tab := s.Table()
	if !strings.Contains(tab, "tiles") || !strings.Contains(tab, "3.00") {
		t.Fatalf("table:\n%s", tab)
	}
	if !strings.Contains(tab, "-") {
		t.Fatal("missing cell should render as dash")
	}
}

func TestSeriesCSV(t *testing.T) {
	s := NewSeries("x", "l")
	s.Set(1, "l", 0.5)
	csv := s.CSV()
	want := "x,l\n1,0.5000\n"
	if csv != want {
		t.Fatalf("csv = %q, want %q", csv, want)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b") // padded
	s := tb.String()
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "name") {
		t.Fatalf("table:\n%s", s)
	}
}

func TestAsciiChart(t *testing.T) {
	s := NewSeries("tiles", "ov")
	s.Set(8, "ov", 4)
	s.Set(16, "ov", 1)
	c := AsciiChart(s, "ov", 20)
	if !strings.Contains(c, "####################") {
		t.Fatalf("chart max bar missing:\n%s", c)
	}
	if !strings.Contains(c, "16 | #####") {
		t.Fatalf("chart quarter bar missing:\n%s", c)
	}
}
