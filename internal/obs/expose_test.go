package obs

import (
	"bytes"
	"testing"
)

func TestWriterExposition(t *testing.T) {
	h := NewHistogram([]float64{0.5, 1})
	for _, v := range []float64{1, 0.25, 3} { // 1 sits on a bound: le counts it there
		h.Observe(v)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Family("empty_total", "counter")
	w.Family("up", "gauge").Float(1.5)
	w.Family("hits_total", "counter").Int(7, "path", "a\"b\\c\nd", "code", "200")
	w.Family("lat_seconds", "histogram").Histogram(&h, "path", "x")
	w.Family("also_empty", "histogram")

	want := `# TYPE up gauge
up 1.5
# TYPE hits_total counter
hits_total{path="a\"b\\c\nd",code="200"} 7
# TYPE lat_seconds histogram
lat_seconds_bucket{path="x",le="0.5"} 1
lat_seconds_bucket{path="x",le="1"} 2
lat_seconds_bucket{path="x",le="+Inf"} 3
lat_seconds_sum{path="x"} 4.25
lat_seconds_count{path="x"} 3
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if err := ValidateExposition(buf.String()); err != nil {
		t.Fatal(err)
	}
	if h.Count() != 3 || h.Sum() != 4.25 {
		t.Fatalf("count %d, sum %g", h.Count(), h.Sum())
	}
	c := h.Clone()
	h.Observe(0)
	if c.Count() != 3 {
		t.Fatalf("clone shares counts: %d after observing the original", c.Count())
	}
}
