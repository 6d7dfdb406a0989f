package obs

import (
	"bytes"
	"sort"
	"strconv"
	"strings"
)

// The Prometheus text exposition (version 0.0.4) of drhwd, drhwcoord
// and the shell's request families is written here and nowhere else.
// ValidateExposition, the linter tests hold it to, shares no code with
// it.

// Histogram is a fixed-bucket histogram: one count per upper bound
// plus +Inf, and the sum of the observations. Its owner synchronizes
// it.
type Histogram struct {
	bounds []float64 // ascending; shared, never written
	counts []int64   // per bucket, not cumulative; the last is +Inf
	sum    float64
}

// NewHistogram returns an empty histogram over ascending bounds.
func NewHistogram(bounds []float64) Histogram {
	return Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe counts v in the first bucket whose bound is at least v (the
// exposition's le semantics).
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.sum += v
}

// Count is the number of observations.
func (h *Histogram) Count() (n int64) {
	for _, c := range h.counts {
		n += c
	}
	return n
}

// Sum is the sum of the observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Clone returns a copy that shares no counts with h.
func (h *Histogram) Clone() Histogram {
	c := *h
	c.counts = append([]int64(nil), h.counts...)
	return c
}

// Writer appends metric families to a buffer. A family's "# TYPE" line
// goes out with its first series, so a family with no series writes
// nothing. Labels are name/value pairs, written in order.
type Writer struct {
	buf        *bytes.Buffer
	name, head string // head is the pending TYPE line, "" once written
}

// NewWriter returns a Writer appending to buf.
func NewWriter(buf *bytes.Buffer) *Writer { return &Writer{buf: buf} }

// Family starts the family name of type typ ("counter", "gauge" or
// "histogram") and returns w for its series.
func (w *Writer) Family(name, typ string) *Writer {
	w.name, w.head = name, "# TYPE "+name+" "+typ+"\n"
	return w
}

// Int writes one integer series of the current family.
func (w *Writer) Int(v int64, labels ...string) { w.sample("", labels, strconv.FormatInt(v, 10)) }

// Float writes one float series of the current family, formatted as
// fmt's %g.
func (w *Writer) Float(v float64, labels ...string) { w.sample("", labels, formatFloat(v)) }

// Histogram writes h as one series of the current family: cumulative
// _bucket samples up to le="+Inf", then _sum and _count.
func (w *Writer) Histogram(h *Histogram, labels ...string) {
	var cum int64
	for i, c := range h.counts {
		cum += c
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		w.sample("_bucket", append(labels[:len(labels):len(labels)], "le", le), strconv.FormatInt(cum, 10))
	}
	w.sample("_sum", labels, formatFloat(h.sum))
	w.sample("_count", labels, strconv.FormatInt(cum, 10))
}

func (w *Writer) sample(suffix string, labels []string, value string) {
	w.buf.WriteString(w.head)
	w.head = ""
	w.buf.WriteString(w.name + suffix)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		w.buf.WriteString(sep + labels[i] + `="` + labelEscaper.Replace(labels[i+1]) + `"`)
	}
	if len(labels) > 0 {
		w.buf.WriteByte('}')
	}
	w.buf.WriteString(" " + value + "\n")
}

// labelEscaper applies the exposition's only label-value escapes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
