// Package clock provides the simulation time base shared by every layer of
// the simulator. Time is measured in integer picoseconds so that DRAM clock
// periods (e.g. 833.33 ps for DDR4-2400) accumulate without floating-point
// drift over multi-second simulated intervals.
package clock

import "fmt"

// Time is an absolute simulation timestamp or a duration, in picoseconds.
// The zero value is the simulation epoch.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Never is a sentinel meaning "no scheduled event"; it compares greater than
// any reachable simulation time.
const Never Time = 1<<63 - 1

// Nanoseconds returns t as a floating-point nanosecond count, for reporting.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Seconds returns t as a floating-point second count, for reporting.
//
//twicelint:keep called by the root bench_test.go
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time with an auto-selected unit, e.g. "7.8µs".
func (t Time) String() string {
	switch {
	case t == Never:
		return "never"
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return trimUnit(float64(t)/float64(Nanosecond), "ns")
	case t < Millisecond:
		return trimUnit(float64(t)/float64(Microsecond), "µs")
	case t < Second:
		return trimUnit(float64(t)/float64(Millisecond), "ms")
	default:
		return trimUnit(float64(t)/float64(Second), "s")
	}
}

func trimUnit(v float64, unit string) string {
	s := fmt.Sprintf("%.3f", v)
	// Trim trailing zeros and a dangling decimal point.
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s + unit
}

// Min returns the smaller of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
