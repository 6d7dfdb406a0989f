// Package model defines the elementary quantities shared by every other
// package in the simulator: integer time with microsecond resolution,
// durations, and identifier types.
//
// All scheduling mathematics is done on int64 microseconds. The paper's
// parameters (4 ms reconfiguration latency, 0.2–30 ms subtask execution
// times) are exactly representable, no floating-point drift can change
// who wins a resource, and results are reproducible across platforms.
package model

import "fmt"

// Time is an absolute instant on the simulated clock, in microseconds
// since the start of the simulation. Time zero is the simulator epoch.
type Time int64

// Dur is a span of simulated time in microseconds.
type Dur int64

// Convenient duration units.
const (
	Microsecond Dur = 1
	Millisecond Dur = 1000 * Microsecond
	Second      Dur = 1000 * Millisecond
)

// MS returns a duration of ms milliseconds. Fractional milliseconds are
// rounded to the nearest microsecond, so MS(0.2) is exactly 200 µs.
func MS(ms float64) Dur {
	return Dur(ms*float64(Millisecond) + 0.5)
}

// Add returns the instant d after t.
func (t Time) Add(d Dur) Time { return t + Time(d) }

// Sub returns the span from u to t.
func (t Time) Sub(u Time) Dur { return Dur(t - u) }

// Milliseconds reports the duration in (possibly fractional) milliseconds.
func (d Dur) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// String renders the duration in the most natural unit.
func (d Dur) String() string {
	switch {
	case d == 0:
		return "0"
	case d%Second == 0:
		return fmt.Sprintf("%ds", d/Second)
	case d%Millisecond == 0:
		return fmt.Sprintf("%dms", d/Millisecond)
	case d >= Millisecond || d <= -Millisecond:
		return fmt.Sprintf("%.3gms", d.Milliseconds())
	default:
		return fmt.Sprintf("%dµs", int64(d))
	}
}

// String renders the instant as an offset from the simulator epoch.
func (t Time) String() string { return Dur(t).String() }

// MaxTime is the largest representable instant; used as "never".
const MaxTime Time = 1<<63 - 1

// MaxT returns the later of two instants.
func MaxT(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// MinT returns the earlier of two instants.
func MinT(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// MaxD returns the longer of two durations.
func MaxD(a, b Dur) Dur {
	if a > b {
		return a
	}
	return b
}

// Pct expresses part as a percentage of whole; it reports 0 for an empty
// whole so callers can fold it straight into reports.
func Pct(part, whole Dur) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
