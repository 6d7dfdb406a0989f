package model

import (
	"testing"
	"testing/quick"
)

func TestMSExactForPaperParameters(t *testing.T) {
	cases := []struct {
		ms   float64
		want Dur
	}{
		{4, 4000},
		{0.2, 200},
		{30, 30000},
		{5.7, 5700},
		{0, 0},
	}
	for _, c := range cases {
		if got := MS(c.ms); got != c.want {
			t.Errorf("MS(%v) = %d, want %d", c.ms, got, c.want)
		}
	}
}

func TestAddSub(t *testing.T) {
	var t0 Time = 100
	t1 := t0.Add(50)
	if t1 != 150 {
		t.Fatalf("Add: %d", t1)
	}
	if d := t1.Sub(t0); d != 50 {
		t.Fatalf("Sub: %d", d)
	}
}

func TestDurString(t *testing.T) {
	cases := []struct {
		d    Dur
		want string
	}{
		{0, "0"},
		{4 * Millisecond, "4ms"},
		{2 * Second, "2s"},
		{1500, "1.5ms"},
		{200, "200µs"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestMinMaxHelpers(t *testing.T) {
	if MaxT(1, 2) != 2 || MaxT(3, 2) != 3 {
		t.Fatal("MaxT")
	}
	if MinT(1, 2) != 1 || MinT(3, 2) != 2 {
		t.Fatal("MinT")
	}
	if MaxD(5, 7) != 7 || MaxD(8, 7) != 8 {
		t.Fatal("MaxD")
	}
}

func TestPct(t *testing.T) {
	if got := Pct(20, 80); got != 25 {
		t.Fatalf("Pct = %v", got)
	}
	if got := Pct(5, 0); got != 0 {
		t.Fatalf("Pct with zero whole = %v", got)
	}
}

func TestMillisecondsRoundTrip(t *testing.T) {
	f := func(ms uint16) bool {
		d := Dur(ms) * Millisecond
		return d.Milliseconds() == float64(ms)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MaxT/MinT bracket their arguments.
func TestMinMaxProperty(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Time(a), Time(b)
		lo, hi := MinT(x, y), MaxT(x, y)
		return lo <= hi && (lo == x || lo == y) && (hi == x || hi == y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
